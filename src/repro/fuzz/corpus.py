"""The checked-in regression corpus under ``tests/corpus/``.

Every payload that ever escaped the :class:`ProtocolError` taxonomy is
pinned here — one ``.bin`` file per case, one ``MANIFEST.json`` per
target directory mapping case ids to a description of the bug the case
caught. The tier-1 suite replays the whole corpus on every run: a case
"replays clean" when the target either parses it or raises a typed
``ProtocolError``; any other exception is the old bug resurfacing.

Layout::

    tests/corpus/<target>/MANIFEST.json
    tests/corpus/<target>/<case_id>.bin
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro.fuzz.session import HANDLED, crash_site
from repro.fuzz.targets import get_target

MANIFEST_NAME = "MANIFEST.json"


@dataclass(frozen=True)
class CorpusCase:
    """One pinned regression payload."""

    target: str
    case_id: str
    description: str
    payload: bytes


def save_case(  # repro-lint: disable=RL014  # b: writes corpus fixtures
    case: CorpusCase, root: Path
) -> Path:
    """Write one case (payload + manifest entry) under ``root``.

    ``root`` is the corpus root (the directory holding one subdirectory
    per target). Returns the payload path.
    """
    target_dir = root / case.target
    target_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = target_dir / MANIFEST_NAME
    manifest = {"target": case.target, "cases": {}}
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["cases"][case.case_id] = case.description
    manifest["cases"] = dict(sorted(manifest["cases"].items()))
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    payload_path = target_dir / f"{case.case_id}.bin"
    payload_path.write_bytes(case.payload)
    return payload_path


def load_corpus(  # repro-lint: disable=RL014  # b: corpus replay seam
    root: Path, target: Optional[str] = None
) -> Tuple[CorpusCase, ...]:
    """Load every pinned case under ``root`` (optionally one target's)."""
    cases: List[CorpusCase] = []
    if not root.exists():
        return ()
    for manifest_path in sorted(root.glob(f"*/{MANIFEST_NAME}")):
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if "target" not in manifest:
            # Not a fuzz corpus — tests/corpus/ is shared with the
            # scenario hunter, whose manifests have no wire target.
            continue
        target_name = manifest["target"]
        if target is not None and target_name != target:
            continue
        for case_id, description in sorted(manifest["cases"].items()):
            payload_path = manifest_path.parent / f"{case_id}.bin"
            cases.append(
                CorpusCase(
                    target=target_name,
                    case_id=case_id,
                    description=description,
                    payload=payload_path.read_bytes(),
                )
            )
    return tuple(cases)


def replay_case(  # repro-lint: disable=RL014  # b: corpus replay seam
    case: CorpusCase,
) -> Optional[str]:
    """Replay one case against its target.

    Returns ``None`` when the case replays clean (parsed, or rejected
    with a typed ``ProtocolError``); otherwise a human-readable failure
    string naming the escaping exception and its raise site.
    """
    target = get_target(case.target)
    try:
        target.execute(case.payload)
    except HANDLED:
        return None
    except Exception as exc:  # noqa: BLE001 - the regression oracle
        return (
            f"corpus case {case.target}/{case.case_id} "
            f"({case.description}) escaped the ProtocolError taxonomy: "
            f"{type(exc).__name__}: {exc} at {crash_site(exc)}"
        )
    return None
