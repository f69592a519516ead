"""repro-lint: AST-based invariant checks for the reproduction.

A self-contained static-analysis layer that enforces the conventions
the simulator's correctness rests on. Per-module rules see one file's
AST at a time:

* **RL001** — stochastic code draws from seeded RngFactory streams;
* **RL002** — unit conversions go through :mod:`repro.util.units`;
* **RL003** — experiment modules honour the ``@experiment`` contract;
* **RL004** — recovery paths never swallow exceptions;
* **RL005** — no exact ``==`` on simulated clocks or byte volumes;
* **RL006** — wire parse paths raise only ProtocolError subclasses;
* **RL007** — public surfaces carry one-line docstring summaries.

Project rules see the whole tree at once — symbol table, call graph
and dataflow summaries (:mod:`repro.lint.graph`,
:mod:`repro.lint.project`):

* **RL008** — RNG seeds derive from a seeded RngFactory root,
  transitively through helpers;
* **RL009** — instrumentation sites emit only catalogued event/metric
  names and fields (obs/schema.py);
* **RL010** — CapTracker/PermitServer mutations happen only in the
  guard layer (the static twin of the hunt's authority oracle);
* **RL011** — only ProtocolError escapes wire parse paths, proven
  across call boundaries;
* **RL013** — imports go down the documented layer table;
* **RL014** — every public top-level function and class has a user in
  the tree (whole-package runs only).

Run it with the ``repro-lint`` console script (see
:mod:`repro.lint.cli`), or programmatically via :func:`lint_source` /
:func:`lint_paths` / :func:`lint_sources`. Suppress a justified
exception inline with ``# repro-lint: disable=<code>``; dead comments
are flagged by ``--warn-unused-suppressions``.
"""

from repro.lint.core import (
    PARSE_ERROR_CODE,
    UNUSED_SUPPRESSION_CODE,
    DuplicateRuleError,
    Finding,
    LintError,
    LintRun,
    ModuleContext,
    ProjectRule,
    Rule,
    UnknownRuleError,
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
    lint_sources,
    module_root,
    parse_suppressions,
    repro_relative_parts,
    rule,
    select_rules,
)
from repro.lint.project import ProjectContext
from repro.lint.reporters import render_json, render_text, run_payload

__all__ = [
    "PARSE_ERROR_CODE",
    "UNUSED_SUPPRESSION_CODE",
    "DuplicateRuleError",
    "Finding",
    "LintError",
    "LintRun",
    "ModuleContext",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "UnknownRuleError",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "module_root",
    "parse_suppressions",
    "repro_relative_parts",
    "render_json",
    "render_text",
    "rule",
    "run_payload",
    "select_rules",
]
