"""Benchmark measurement, record schema, and the regression gate.

A benchmark record (one ``BENCH_<name>.json`` at the repo root) is::

    {
      "benchmark": "fig06",
      "kind": "experiment-quick" | "engine-scale",
      "unit": "seconds",
      "repeats": 5,
      "run_s": {"median": 0.28, "min": 0.27, "samples": [...]},
      "calibration_s": 0.031,
      "normalized": 9.1,
      "workload": {...},          # deterministic counters, drift check
      "baseline": {...},          # optional provenance notes
    }

``normalized`` is what :func:`check_records` compares: wall-clock
seconds differ across machines, but the ratio against a fixed
pure-Python spin transfers. Each repeat measures its own spin
immediately before the run and contributes the pair's ratio; the record
keeps the **minimum** ratio, so one repeat landing in a quiet scheduling
window suffices even on a loaded box (back-to-back pairing cancels
slowly-varying background load that a single up-front calibration would
miss). The gate compares the fresh **min** ratio against the committed
**median** ratio (``run_over_spin.median``): the fresh side gets its
best shot, while the committed reference is the typical ratio of the
baseline session — so the gate's headroom automatically widens by the
noise observed when the baseline was recorded, instead of flaking on a
lucky-fast committed minimum. It fails when the fresh minimum exceeds
the committed median by more than :data:`REGRESSION_THRESHOLD`.

All timings use ``time.perf_counter`` — wall-clock measurement is the
one job this package has, and RL001 deliberately permits it.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.scenarios import run_engine_scale, run_fleet_scale
from repro.netsim.stochastic import reset_draw_memo

#: Fractional slowdown of ``normalized`` that fails the CI gate.
REGRESSION_THRESHOLD = 0.25

#: Default repeats per benchmark (min of paired ratios taken).
DEFAULT_REPEATS = 5

#: Committed record file per benchmark name.
BENCH_FILENAMES: Dict[str, str] = {
    "fig06": "BENCH_fig06.json",
    "ext-churn": "BENCH_ext_churn.json",
    "engine-scale": "BENCH_engine_scale.json",
    "fleet": "BENCH_fleet.json",
}

#: Benchmark name -> (kind, experiment id or None).
BENCHMARKS: Dict[str, Tuple[str, Optional[str]]] = {
    "fig06": ("experiment-quick", "fig06"),
    "ext-churn": ("experiment-quick", "ext-churn"),
    "engine-scale": ("engine-scale", None),
    "fleet": ("fleet-scale", None),
}

_CALIBRATION_LOOPS = 400_000


def calibration_seconds(repeats: int = 1) -> float:
    """Seconds for a fixed pure-Python spin (min over ``repeats``).

    The workload is arbitrary but frozen: changing it invalidates every
    committed ``normalized`` value at once.
    """
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        acc = 0
        for i in range(_CALIBRATION_LOOPS):
            acc = (acc + i * i) % 1_000_003
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best


def _time_experiment(experiment_id: str) -> Tuple[float, Dict[str, Any]]:
    """One quick-profile run; returns (run seconds, workload counters)."""
    from repro.experiments.runner import run_experiments

    outcomes = run_experiments([experiment_id], quick=True, jobs=1)
    outcome = outcomes[0]
    if not outcome.ok or outcome.profile is None:
        raise RuntimeError(
            f"benchmark experiment {experiment_id!r} failed: "
            f"{outcome.error or outcome.status}"
        )
    return outcome.profile["run_s"], {"params": "registry quick profile"}


def _time_engine_scale() -> Tuple[float, Dict[str, Any]]:
    started = time.perf_counter()
    counters = run_engine_scale()
    elapsed = time.perf_counter() - started
    return elapsed, dict(counters)


def _time_fleet_scale() -> Tuple[float, Dict[str, Any]]:
    started = time.perf_counter()
    counters = run_fleet_scale()
    elapsed = time.perf_counter() - started
    return elapsed, dict(counters)


def measure_benchmark(
    name: str, repeats: int = DEFAULT_REPEATS
) -> Dict[str, Any]:
    """Measure ``name`` ``repeats`` times; returns a full record.

    Each repeat runs a calibration spin immediately before the workload
    and contributes the ``run/spin`` ratio; ``normalized`` is the
    minimum ratio across repeats (see the module docstring).
    """
    kind, experiment_id = BENCHMARKS[name]
    runner_fn: Callable[[], Tuple[float, Dict[str, Any]]]
    if kind == "experiment-quick":
        assert experiment_id is not None
        runner_fn = functools.partial(_time_experiment, experiment_id)
    elif kind == "fleet-scale":
        runner_fn = _time_fleet_scale
    else:
        runner_fn = _time_engine_scale
    samples: List[float] = []
    ratios: List[float] = []
    calibrations: List[float] = []
    workload: Dict[str, Any] = {}
    for _ in range(repeats):
        # Every repeat starts from an empty draw memo, as a fresh
        # process would, so the minimum never times a warm memo.
        reset_draw_memo()
        spin = calibration_seconds()
        elapsed, workload = runner_fn()
        calibrations.append(spin)
        samples.append(elapsed)
        ratios.append(elapsed / spin)
    return {
        "benchmark": name,
        "kind": kind,
        "unit": "seconds",
        "repeats": repeats,
        "run_s": {
            "median": round(statistics.median(samples), 6),
            "min": round(min(samples), 6),
            "samples": [round(s, 6) for s in samples],
        },
        "calibration_s": round(min(calibrations), 6),
        "normalized": round(min(ratios), 4),
        "run_over_spin": {
            "min": round(min(ratios), 4),
            "median": round(statistics.median(ratios), 4),
            "samples": [round(r, 4) for r in ratios],
        },
        "workload": workload,
    }


def load_record(path: Path) -> Dict[str, Any]:
    """Read one committed benchmark record."""
    record = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(record, dict) or "normalized" not in record:
        raise ValueError(f"not a benchmark record: {path}")
    return record


def check_records(
    fresh: Dict[str, Dict[str, Any]],
    committed: Dict[str, Dict[str, Any]],
    threshold: float = REGRESSION_THRESHOLD,
) -> List[str]:
    """Compare fresh measurements to committed records.

    Returns human-readable failure lines (empty = gate passes). A
    benchmark fails on a >``threshold`` normalized slowdown (fresh min
    ratio vs committed median ratio — see the module docstring), on a
    workload-counter mismatch (the scenario itself drifted — timings are
    then not comparable), or when the committed record is missing.
    """
    failures: List[str] = []
    for name, record in fresh.items():
        reference = committed.get(name)
        if reference is None:
            failures.append(f"{name}: no committed BENCH record")
            continue
        drift = _workload_drift(record, reference)
        if drift:
            failures.append(f"{name}: workload drifted ({drift})")
            continue
        ratios = reference.get("run_over_spin") or {}
        old = float(ratios.get("median", reference["normalized"]))
        new = float(record["normalized"])
        if old > 0 and new > old * (1.0 + threshold):
            failures.append(
                f"{name}: normalized {new:.3f} vs committed {old:.3f} "
                f"(+{(new / old - 1.0) * 100.0:.0f}%, "
                f"gate {threshold * 100.0:.0f}%)"
            )
    return failures


def _workload_drift(
    record: Dict[str, Any], reference: Dict[str, Any]
) -> str:
    """Describe deterministic-counter mismatches, if any."""
    fresh = record.get("workload") or {}
    committed = reference.get("workload") or {}
    mismatched = [
        key
        for key in committed
        if key in fresh and fresh[key] != committed[key]
    ]
    if mismatched:
        return ", ".join(
            f"{key}={fresh[key]} != {committed[key]}" for key in mismatched
        )
    return ""
