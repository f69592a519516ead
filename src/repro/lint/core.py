"""The repro-lint framework: findings, rules, registry, engine.

The reproduction's correctness rests on conventions nothing in the
language enforces — every stochastic component draws from a seeded
stream, every bytes<->bits conversion goes through
:mod:`repro.util.units`, every experiment module honours the registry
contract. This module is the machinery that turns those conventions
into checkable rules:

* :class:`Finding` — one violation, anchored to a file/line/column;
* :class:`Rule` — a named check over one module's AST;
* a rule registry mirroring the experiment registry
  (:func:`rule` decorator, :func:`all_rules`, :func:`get_rule`);
* per-line suppression via ``# repro-lint: disable=RL001[,RL002]``
  (or a bare ``disable`` to silence every rule on that line);
* :func:`lint_source` / :func:`lint_paths` — the engine that parses,
  scopes and runs every selected rule.

The domain rules themselves live in :mod:`repro.lint.rules`; reporters
in :mod:`repro.lint.reporters`; the console entry point in
:mod:`repro.lint.cli`.
"""

from __future__ import annotations

import ast
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

if TYPE_CHECKING:
    from repro.lint.project import ProjectContext

__all__ = [
    "DuplicateRuleError",
    "Finding",
    "LintError",
    "LintRun",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "UnknownRuleError",
    "all_rules",
    "get_rule",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "module_root",
    "parse_suppressions",
    "repro_relative_parts",
    "rule",
    "select_rules",
]

#: Code used for files the engine cannot parse at all.
PARSE_ERROR_CODE = "RL000"
#: Code used for `--warn-unused-suppressions` findings.
UNUSED_SUPPRESSION_CODE = "RL099"


class LintError(Exception):
    """Base class for lint framework failures."""


class DuplicateRuleError(LintError):
    """Two rules tried to register the same code."""


class UnknownRuleError(LintError):
    """Lookup or selection of a code nothing registered."""

    def __init__(self, code: str, available: Tuple[str, ...]) -> None:
        self.code = code
        self.available = available
        super().__init__(
            f"unknown rule {code!r}; available: " + ", ".join(available)
        )


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0

    def location(self) -> str:
        """``path:line:col`` — the clickable anchor of the finding."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready record (one element of ``--format json`` output)."""
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
        }


@dataclass
class ModuleContext:
    """Everything a rule may look at for one module."""

    path: str
    source: str
    tree: ast.Module
    #: Path parts relative to the ``repro`` package root (empty tuple
    #: when the file is not under a ``repro`` directory); rules use this
    #: for scoping so the checker behaves the same from any CWD.
    rel_parts: Tuple[str, ...] = ()
    #: For files outside the ``repro`` package: the top-level tree they
    #: belong to (``"tests"`` / ``"benchmarks"``), else ``""``. Rules
    #: that run over the test suite scope on this.
    root: str = ""

    def finding(
        self, code: str, message: str, node: ast.AST
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            code=code,
            message=message,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )


class Rule:
    """One named invariant check over a module's AST.

    Subclasses set :attr:`code`, :attr:`title` and :attr:`rationale`
    (all surfaced by ``repro-lint --list-rules`` and the README), scope
    themselves via :meth:`applies_to`, and yield findings from
    :meth:`check`. Rules are stateless: one instance serves every file.
    """

    #: Short identifier, ``RL`` + three digits.
    code: str = "RL???"
    #: One-line summary of what the rule forbids.
    title: str = ""
    #: Why the invariant matters for the reproduction.
    rationale: str = ""
    #: Human-readable scope (packages/paths the rule runs over),
    #: surfaced by ``--list-rules`` and the README catalogue.
    scope: str = ""
    #: Project-level rules run once over the whole tree instead of
    #: per module; see :class:`ProjectRule`.
    project_level: bool = False

    def applies_to(self, context: ModuleContext) -> bool:
        """Whether this rule runs on the module at all (path scoping)."""
        return True

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        """Yield every violation found in ``context.tree``."""
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule that queries the whole-tree :class:`ProjectContext`.

    Project rules run once per lint invocation, after every module has
    been parsed, and see the cross-module symbol table, call graph and
    function summaries built by :mod:`repro.lint.project`. Their
    findings still anchor to a file/line and still honour that line's
    ``# repro-lint: disable=`` suppressions.
    """

    project_level = True

    def applies_to(self, context: ModuleContext) -> bool:
        """Project rules never run in the per-module pass."""
        return False

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        """Project rules have no per-module check."""
        return iter(())

    def judges(self, project: "ProjectContext") -> bool:
        """Whether ``project`` is enough of the tree for this rule.

        A rule that answers False is skipped for the run, and its
        suppression comments are not audited either.
        """
        return True

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        """Yield every violation found across the project."""
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator registering a :class:`Rule` subclass by its code."""
    instance = cls()
    existing = _REGISTRY.get(instance.code)
    if existing is not None:
        raise DuplicateRuleError(
            f"rule code {instance.code!r} registered twice "
            f"({type(existing).__name__} and {cls.__name__})"
        )
    _REGISTRY[instance.code] = instance
    return cls


def _ensure_rules_loaded() -> None:
    # Import-driven registration, like the experiment registry: the
    # domain rules register when their module is first imported.
    import repro.lint.project_rules  # noqa: F401
    import repro.lint.rules  # noqa: F401


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, ordered by code."""
    _ensure_rules_loaded()
    return tuple(
        _REGISTRY[code] for code in sorted(_REGISTRY)
    )


def get_rule(code: str) -> Rule:
    """The rule registered under ``code``; raises UnknownRuleError."""
    _ensure_rules_loaded()
    try:
        return _REGISTRY[code]
    except KeyError:
        raise UnknownRuleError(
            code, tuple(sorted(_REGISTRY))
        ) from None


def select_rules(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> Tuple[Rule, ...]:
    """The rule set after ``--select`` / ``--ignore`` filtering."""
    chosen: Iterable[Rule]
    if select:
        chosen = tuple(get_rule(code) for code in select)
    else:
        chosen = all_rules()
    if ignore:
        dropped = {get_rule(code).code for code in ignore}
        chosen = tuple(r for r in chosen if r.code not in dropped)
    return tuple(chosen)


# ---------------------------------------------------------------------------
# Suppression comments
# ---------------------------------------------------------------------------

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?:\s*=\s*(?P<codes>[A-Z0-9,\s]+?))?\s*(?:#|$)"
)


def parse_suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Per-line suppressions from ``# repro-lint: disable=...`` comments.

    Returns ``{line_number: codes}`` where ``codes`` is the set of
    suppressed rule codes, or ``None`` for a bare ``disable`` that
    silences every rule on that line. Line numbers are 1-based.
    """
    suppressions: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressions[lineno] = None
        else:
            parsed = {
                code.strip() for code in codes.split(",") if code.strip()
            }
            previous = suppressions.get(lineno, set())
            if previous is None:
                continue
            suppressions[lineno] = previous | parsed
    return suppressions


def _suppressed(
    finding: Finding, suppressions: Dict[int, Optional[Set[str]]]
) -> bool:
    codes = suppressions.get(finding.line, set())
    return codes is None or finding.code in (codes or ())


# ---------------------------------------------------------------------------
# Path scoping
# ---------------------------------------------------------------------------


def repro_relative_parts(path: str) -> Tuple[str, ...]:
    """Path parts relative to the last ``repro`` directory in ``path``.

    ``src/repro/core/scheduler/runner.py`` becomes
    ``("core", "scheduler", "runner.py")``. Files not under a ``repro``
    directory return an empty tuple (rules then fall back to matching
    the raw path, so fixtures with synthetic paths still scope).
    """
    parts = Path(path).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return tuple(parts[index + 1:])
    return ()


def module_root(path: str) -> str:
    """``"tests"`` / ``"benchmarks"`` for files under those trees.

    Only meaningful for files *not* under a ``repro`` directory (the
    package's own files scope via :func:`repro_relative_parts`); any
    other non-repro file returns ``""``.
    """
    parts = Path(path).parts
    if "repro" in parts:
        return ""
    for part in parts:
        if part in ("tests", "benchmarks"):
            return part
    return ""


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def _parse_context(
    source: str, path: str
) -> Tuple[Optional[ModuleContext], Optional[Finding]]:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return None, Finding(
            code=PARSE_ERROR_CODE,
            message=f"cannot parse: {exc.msg}",
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
        )
    return (
        ModuleContext(
            path=path,
            source=source,
            tree=tree,
            rel_parts=repro_relative_parts(path),
            root=module_root(path),
        ),
        None,
    )


def lint_source(  # repro-lint: disable=RL014  # b: test entry point
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run ``rules`` (default: all registered) over one module's source.

    Project-level rules are skipped here — a single module has no
    project; use :func:`lint_paths` or :func:`lint_sources` for those.
    """
    active = tuple(rules) if rules is not None else all_rules()
    context, parse_error = _parse_context(source, path)
    if context is None:
        return [parse_error] if parse_error is not None else []
    suppressions = parse_suppressions(source)
    findings: List[Finding] = []
    for active_rule in active:
        if active_rule.project_level:
            continue
        if not active_rule.applies_to(context):
            continue
        for finding in active_rule.check(context):
            if not _suppressed(finding, suppressions):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Every ``*.py`` file under ``paths`` (files pass through as-is)."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


@dataclass
class LintRun:
    """Outcome of linting a set of paths."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: Wall-clock seconds spent per rule code (project rules included;
    #: the shared project-graph build is the ``"project-graph"`` key).
    rule_timings: Dict[str, float] = field(default_factory=dict)
    #: Total wall-clock seconds for the whole run.
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when no finding survived suppression."""
        return not self.findings

    def by_rule(self) -> Dict[str, int]:
        """Finding count per rule code."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))


class _SuppressionLedger:
    """Which suppression comments actually suppressed something."""

    def __init__(self) -> None:
        #: path -> {line: comment codes (None = blanket)}
        self.declared: Dict[str, Dict[int, Optional[Set[str]]]] = {}
        #: path -> {line: codes that matched a finding there}
        self.used: Dict[str, Dict[int, Set[str]]] = {}

    def declare(
        self, path: str, suppressions: Dict[int, Optional[Set[str]]]
    ) -> None:
        self.declared[path] = suppressions

    def filter(self, finding: Finding) -> bool:
        """True (and record the hit) when ``finding`` is suppressed."""
        suppressions = self.declared.get(finding.path, {})
        if not _suppressed(finding, suppressions):
            return False
        self.used.setdefault(finding.path, {}).setdefault(
            finding.line, set()
        ).add(finding.code)
        return True

    def unused_findings(
        self, active: Sequence[Rule], abstained: Set[str]
    ) -> Iterator[Finding]:
        """RL099 findings for comments that suppressed nothing.

        A coded suppression is only judged when its rule actually ran
        (was selected and did not abstain); a blanket ``disable`` is
        only judged when the *full* registry was selected (any narrower
        selection could be what it exists for).
        """
        selected = {r.code for r in active}
        full_run = selected >= {r.code for r in all_rules()}
        active_codes = selected - abstained
        for path in sorted(self.declared):
            for line, codes in sorted(self.declared[path].items()):
                used_here = self.used.get(path, {}).get(line, set())
                if codes is None:
                    if full_run and not used_here:
                        yield Finding(
                            code=UNUSED_SUPPRESSION_CODE,
                            message=(
                                "blanket `# repro-lint: disable` "
                                "suppresses nothing on this line; "
                                "delete it"
                            ),
                            path=path,
                            line=line,
                        )
                    continue
                for code in sorted(codes):
                    if code in active_codes and code not in used_here:
                        yield Finding(
                            code=UNUSED_SUPPRESSION_CODE,
                            message=(
                                f"suppression for {code} matches no "
                                "finding on this line; delete it"
                            ),
                            path=path,
                            line=line,
                        )


def _lint_modules(
    items: Iterable[Tuple[str, str]],
    rules: Optional[Sequence[Rule]] = None,
    on_file: Optional[Callable[[Path], None]] = None,
    warn_unused_suppressions: bool = False,
) -> LintRun:
    started = time.perf_counter()
    active = tuple(rules) if rules is not None else all_rules()
    module_rules = tuple(r for r in active if not r.project_level)
    project_rules = tuple(r for r in active if r.project_level)
    run = LintRun()
    ledger = _SuppressionLedger()
    #: Project rules that declined to judge this tree (partial runs).
    abstained: Set[str] = set()
    contexts: List[ModuleContext] = []
    timings: Dict[str, float] = {}
    for path, source in items:
        if on_file is not None:
            on_file(Path(path))
        run.files_checked += 1
        context, parse_error = _parse_context(source, path)
        if context is None:
            if parse_error is not None:
                run.findings.append(parse_error)
            continue
        contexts.append(context)
        ledger.declare(path, parse_suppressions(source))
        for active_rule in module_rules:
            rule_started = time.perf_counter()
            if active_rule.applies_to(context):
                for finding in active_rule.check(context):
                    if not ledger.filter(finding):
                        run.findings.append(finding)
            timings[active_rule.code] = (
                timings.get(active_rule.code, 0.0)
                + time.perf_counter()
                - rule_started
            )
    if project_rules and contexts:
        from repro.lint.project import ProjectContext

        build_started = time.perf_counter()
        project = ProjectContext.from_contexts(contexts)
        timings["project-graph"] = time.perf_counter() - build_started
        for active_rule in project_rules:
            if not active_rule.judges(project):
                abstained.add(active_rule.code)
                continue
            rule_started = time.perf_counter()
            for finding in active_rule.check_project(project):
                if not ledger.filter(finding):
                    run.findings.append(finding)
            timings[active_rule.code] = (
                timings.get(active_rule.code, 0.0)
                + time.perf_counter()
                - rule_started
            )
    if warn_unused_suppressions:
        # Meta-findings bypass the suppression filter: a blanket
        # `disable` must not be able to silence the warning that it is
        # itself dead.
        run.findings.extend(ledger.unused_findings(active, abstained))
    run.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    run.rule_timings = dict(sorted(timings.items()))
    run.duration_s = time.perf_counter() - started
    return run


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    on_file: Optional[Callable[[Path], None]] = None,
    warn_unused_suppressions: bool = False,
) -> LintRun:
    """Lint every Python file under ``paths``."""
    return _lint_modules(
        (
            (str(file_path), file_path.read_text(encoding="utf-8"))
            for file_path in iter_python_files(paths)
        ),
        rules=rules,
        on_file=on_file,
        warn_unused_suppressions=warn_unused_suppressions,
    )


def lint_sources(  # repro-lint: disable=RL014  # b: test entry point
    files: Mapping[str, str],
    rules: Optional[Sequence[Rule]] = None,
    warn_unused_suppressions: bool = False,
) -> LintRun:
    """Lint an in-memory set of modules (path -> source).

    The project-level rules see all of ``files`` as one tree, exactly
    as :func:`lint_paths` would — this is the fixture entry point for
    multi-module tests.
    """
    return _lint_modules(
        sorted(files.items()),
        rules=rules,
        warn_unused_suppressions=warn_unused_suppressions,
    )
