"""Run the repo benchmark: one workload, or both.

::

    python3 perfbench/run.py --workload paper-quick --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 50            # every workload
    python3 perfbench/run.py --all --seed 0 --seconds 50 --trace 1  # per-layer
    python3 perfbench/run.py --record   # print the expected outputs to record

Run it from the root of a checkout; it imports the program from
``src/``. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones). A traced run also writes its spans to
``.perfbench/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
NAMES = ("paper-quick", "relay")


def environment() -> Dict[str, Any]:
    """Where the run happened; printed and written with every trace."""
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
    }


def _contract_units(section: str) -> Dict[str, str]:
    spec = json.loads(BENCHMARK.read_text("utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def _finite(value: float) -> float:
    # JSON has no infinity; a flow that never finished reads as 1e9 ms.
    return value if math.isfinite(value) else 1e9


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    env = environment()
    print(f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    result = workloads.WORKLOADS[workload](seed, seconds, trace)
    attempted = max(1, result.attempted)
    result.named["error_rate"] = result.failed / attempted
    print(f"named {json.dumps(result.named, sort_keys=True)}")
    for problem in result.problems:
        print(f"problem {problem}")
    if trace:
        import layers

        values = layers.complete(result.layer)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{workload}-seed{seed}.json"
        record = {"environment": env, "per_layer": values, **result.trace}
        path.write_text(json.dumps(record), encoding="utf-8")
        print(f"trace {path.relative_to(ROOT)}")
        metrics = values
    else:
        units = _contract_units("end_to_end")
        metrics = {
            name: {"value": _finite(result.metrics[name]), "unit": unit}
            for name, unit in units.items()
        }
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": result.failed == 0 and result.attempted > 0,
                "attempted": attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own interpreter; then one summary table."""
    status = 0
    table: List[str] = []
    for workload in NAMES:
        completed = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--workload",
                workload,
                "--seed",
                str(seed),
                "--seconds",
                str(seconds),
                "--trace",
                str(int(trace)),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.splitlines()
        if completed.returncode != 0 or not lines:
            status = 1
            table.append(f"{workload:14s} FAILED (exit {completed.returncode})")
            continue
        final = json.loads(lines[-1])
        status = status or int(not final["correct"])
        for line in lines:
            if line.startswith("named "):
                for name, value in sorted(json.loads(line[6:]).items()):
                    table.append(f"{workload:14s} {name:24s} {value:.6g}")
    print("summary")
    for row in table:
        print(f"  {row}")
    return status


def record() -> int:
    """Print the outputs ``spec.json`` records for the exact checks."""
    import workloads
    from repro.experiments import registry
    from repro.experiments.runner import run_experiments

    registry.discover()
    outcomes = run_experiments(list(registry.experiment_ids()), quick=True)
    digest = workloads.suite_digest(outcomes)
    print(json.dumps({"paper-quick": {"digest": digest}}, indent=2))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repo benchmark (see perfbench/README.md)."
    )
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=NAMES)
    which.add_argument("--all", action="store_true", help="every workload")
    which.add_argument(
        "--record", action="store_true", help="print outputs to record"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program at {SRC / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    sys.path.insert(0, str(SRC))
    if args.record:
        return record()
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
