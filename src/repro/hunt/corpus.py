"""The checked-in scenario corpus under ``tests/corpus/scenarios/``.

Every scenario that ever violated an invariant oracle is pinned here
after minimisation — one human-readable ``.json`` spec per case, plus a
``MANIFEST.json`` mapping case ids to a description of the bug the case
caught. The tier-1 suite replays the whole corpus on every run: a case
"replays clean" when the full oracle suite comes back empty, so a fixed
bug that resurfaces fails the build with its original witness scenario.

Layout::

    tests/corpus/scenarios/MANIFEST.json
    tests/corpus/scenarios/<case_id>.json
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro.hunt.oracles import check_outcome
from repro.hunt.run import run_scenario
from repro.hunt.scenario import Scenario
from repro.hunt.session import Executor

MANIFEST_NAME = "MANIFEST.json"

__all__ = [
    "MANIFEST_NAME",
    "ScenarioCase",
    "load_corpus",
    "replay_case",
    "save_case",
]


@dataclass(frozen=True)
class ScenarioCase:
    """One pinned regression scenario."""

    case_id: str
    #: What bug the case caught (shown on replay failure).
    description: str
    scenario: Scenario


def save_case(  # repro-lint: disable=RL014  # b: writes corpus fixtures
    case: ScenarioCase, root: Path
) -> Path:
    """Write one case (spec + manifest entry) under ``root``.

    ``root`` is the scenario-corpus directory itself (it holds the
    manifest and the per-case JSON specs). Returns the spec path.
    """
    root.mkdir(parents=True, exist_ok=True)
    manifest_path = root / MANIFEST_NAME
    manifest = {"cases": {}}
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["cases"][case.case_id] = case.description
    manifest["cases"] = dict(sorted(manifest["cases"].items()))
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    spec_path = root / f"{case.case_id}.json"
    spec_path.write_text(
        case.scenario.to_json() + "\n", encoding="utf-8"
    )
    return spec_path


def load_corpus(root: Path) -> Tuple[ScenarioCase, ...]:
    """Load every pinned case under ``root``, sorted by case id."""
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        return ()
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    cases: List[ScenarioCase] = []
    for case_id, description in sorted(manifest["cases"].items()):
        spec_path = root / f"{case_id}.json"
        cases.append(
            ScenarioCase(
                case_id=case_id,
                description=description,
                scenario=Scenario.from_json(
                    spec_path.read_text(encoding="utf-8")
                ),
            )
        )
    return tuple(cases)


def replay_case(
    case: ScenarioCase, executor: Optional[Executor] = None
) -> Optional[str]:
    """Replay one pinned scenario through the full oracle suite.

    Returns ``None`` when the case replays clean (no oracle fires);
    otherwise a human-readable failure string naming the violations —
    the old bug resurfacing.
    """
    execute = executor or run_scenario
    violations = check_outcome(execute(case.scenario))
    if not violations:
        return None
    detail = "; ".join(
        f"{v.oracle}: {v.detail}" for v in violations[:3]
    )
    return (
        f"corpus scenario {case.case_id} ({case.description}) "
        f"violated {len(violations)} invariant(s): {detail}"
    )
