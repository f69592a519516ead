"""Generated rule catalogue: the README's static-analysis table.

The README renders the full rule registry as one markdown table —
code, invariant, scope, per-module vs project level, and how many
justified suppressions the ``src/`` tree currently carries. Generating
it from the registry (and asserting non-drift in ``tests/test_docs.py``,
the same pattern as the obs schema tables) means a new rule or a new
suppression cannot land without the documentation following.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.lint.core import (
    all_rules,
    iter_python_files,
    parse_suppressions,
)

__all__ = ["count_suppressions", "rule_table"]


def count_suppressions(  # repro-lint: disable=RL014  # c: README table
    paths: Sequence[str],
) -> Dict[str, int]:
    """Per-rule count of ``# repro-lint: disable=`` comments under ``paths``.

    A blanket ``disable`` (no codes) is counted under ``"*"``. Only the
    comments are counted, not whether they currently match a finding —
    the ``--warn-unused-suppressions`` audit covers that.
    """
    counts: Dict[str, int] = {}
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        for codes in parse_suppressions(source).values():
            if codes is None:
                counts["*"] = counts.get("*", 0) + 1
            else:
                for code in codes:
                    counts[code] = counts.get(code, 0) + 1
    return dict(sorted(counts.items()))


def rule_table(  # repro-lint: disable=RL014  # c: README table
    suppression_counts: Optional[Mapping[str, int]] = None,
) -> str:
    """The rule catalogue as a markdown table.

    ``suppression_counts`` maps rule code to the number of justified
    inline suppressions (from :func:`count_suppressions`); rules absent
    from the mapping render as 0.
    """
    counts = suppression_counts or {}
    lines = [
        "| Code | Invariant | Scope | Level | Suppressions |",
        "| --- | --- | --- | --- | --- |",
    ]
    for lint_rule in all_rules():
        level = "project" if lint_rule.project_level else "module"
        lines.append(
            f"| {lint_rule.code} "
            f"| {lint_rule.title} "
            f"| {lint_rule.scope} "
            f"| {level} "
            f"| {counts.get(lint_rule.code, 0)} |"
        )
    return "\n".join(lines)
