"""The experiment registry: single source of truth for the catalogue.

Every experiment module self-registers by decorating its ``run``
function::

    @experiment(
        "fig06",
        title="Fig. 6 — scheduler comparison (2 Mbps testbed)",
        description="GRD vs RR vs MIN schedulers (Fig. 6)",
        paper_ref="§5.1, Fig. 6",
        claims="Paper: ...\\nMeasured: ...",
        bench_params={"repetitions": 10},
        quick_params={"repetitions": 2},
        order=70,
    )
    def run(...): ...

The CLI (``repro list`` / ``repro run``), the report generator
(:mod:`repro.experiments.report`) and the benchmark suite all read this
registry instead of keeping their own experiment tables.

Registration is import-driven: decorating registers the spec, and
:func:`discover` imports every module under :mod:`repro.experiments` so
the registry is complete before first use. Accessors call it implicitly.

The structured-result contract every registered ``run()`` must honour:
the returned object exposes ``render()`` (aligned plain-text table, what
the report embeds) and ``to_dict()`` (JSON-ready payload, what
``repro run --json`` prints); see :mod:`repro.util.serialize`.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import pkgutil
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple

from repro.util.serialize import jsonable

__all__ = [
    "DuplicateExperimentError",
    "ExperimentSpec",
    "RegistryError",
    "UnknownExperimentError",
    "all_experiments",
    "discover",
    "experiment",
    "experiment_ids",
    "get",
    "jsonable",
    "temporary_experiment",
]


class RegistryError(Exception):
    """Base class for registry failures."""


class DuplicateExperimentError(RegistryError):
    """Two experiments tried to register the same id."""


class UnknownExperimentError(RegistryError):
    """Lookup of an id nothing registered."""

    def __init__(
        self, experiment_id: str, available: Tuple[str, ...]
    ) -> None:
        self.experiment_id = experiment_id
        self.available = available
        super().__init__(
            f"unknown experiment {experiment_id!r}; available: "
            + ", ".join(available)
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: metadata plus its ``run`` callable."""

    id: str
    #: Section title in EXPERIMENTS.md.
    title: str
    #: One-line catalogue entry for ``repro list``.
    description: str
    #: Where in the paper the claim lives (e.g. ``"§5.1, Fig. 6"``).
    paper_ref: str
    #: Paper-vs-measured commentary embedded in the report.
    claims: str
    #: Benchmark-size keyword arguments (what the report and the
    #: ``benchmarks/`` suite run).
    bench_params: Mapping[str, Any]
    #: Reduced-size overrides for smoke runs (``repro run --quick``).
    quick_params: Mapping[str, Any]
    #: Report ordering key (ties broken by id).
    order: int
    #: The experiment's ``run`` function.
    func: Callable[..., Any] = field(repr=False)

    @property
    def module(self) -> str:
        """Module the experiment lives in."""
        return self.func.__module__

    def accepted_params(self) -> Tuple[str, ...]:
        """Keyword names ``run()`` accepts."""
        return tuple(inspect.signature(self.func).parameters)

    def accepts(self, name: str) -> bool:
        """Whether ``run()`` takes a keyword named ``name``."""
        return name in inspect.signature(self.func).parameters

    def params(self, quick: bool = False) -> Dict[str, Any]:
        """The benchmark parameter set, optionally at quick sizes."""
        merged = dict(self.bench_params)
        if quick:
            merged.update(self.quick_params)
        return merged

    def execute(self, **overrides: Any) -> Any:
        """Run at benchmark size with ``overrides`` applied on top."""
        return self.func(**{**self.params(), **overrides})


_REGISTRY: Dict[str, ExperimentSpec] = {}


def experiment(
    experiment_id: str,
    *,
    title: str,
    description: str,
    paper_ref: str = "",
    claims: str = "",
    bench_params: Optional[Mapping[str, Any]] = None,
    quick_params: Optional[Mapping[str, Any]] = None,
    order: int = 0,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register the decorated ``run`` function; returns it unchanged."""

    def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
        spec = ExperimentSpec(
            id=experiment_id,
            title=title,
            description=description,
            paper_ref=paper_ref,
            claims=claims,
            bench_params=dict(bench_params or {}),
            quick_params=dict(quick_params or {}),
            order=order,
            func=func,
        )
        register(spec)
        func.experiment_spec = spec  # type: ignore[attr-defined]
        return func

    return decorate


def register(spec: ExperimentSpec) -> None:
    """Add ``spec`` to the registry; duplicate ids are an error."""
    existing = _REGISTRY.get(spec.id)
    if existing is not None:
        raise DuplicateExperimentError(
            f"experiment id {spec.id!r} registered twice "
            f"({existing.module} and {spec.module})"
        )
    _REGISTRY[spec.id] = spec


#: Modules under repro.experiments that are infrastructure, not
#: experiments.
_NON_EXPERIMENT_MODULES = frozenset(
    {"catalogue", "registry", "report", "runner", "wild"}
)

_discovered = False


def discover() -> None:
    """Import every experiment module so the registry is complete."""
    global _discovered
    if _discovered:
        return
    _discovered = True
    import repro.experiments as package

    for info in pkgutil.iter_modules(package.__path__):
        if info.name.startswith("_") or info.name in _NON_EXPERIMENT_MODULES:
            continue
        importlib.import_module(f"repro.experiments.{info.name}")


def experiment_ids() -> Tuple[str, ...]:
    """All registered ids, in report order."""
    return tuple(spec.id for spec in all_experiments())


def all_experiments() -> Tuple[ExperimentSpec, ...]:
    """Every registered spec, ordered by (order, id)."""
    discover()
    return tuple(
        sorted(_REGISTRY.values(), key=lambda spec: (spec.order, spec.id))
    )


def get(experiment_id: str) -> ExperimentSpec:
    """The spec for ``experiment_id``; raises UnknownExperimentError."""
    discover()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise UnknownExperimentError(
            experiment_id, experiment_ids()
        ) from None


@contextlib.contextmanager
def temporary_experiment(spec: ExperimentSpec) -> Iterator[ExperimentSpec]:
    """Register ``spec`` for the duration of a ``with`` block (tests)."""
    register(spec)
    try:
        yield spec
    finally:
        _REGISTRY.pop(spec.id, None)
