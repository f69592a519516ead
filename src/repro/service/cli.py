"""``repro-serve``: run the onload service and its chaos/load smoke.

::

    repro-serve smoke                    # seeded chaos+load run, checks
    repro-serve smoke --seed 7 --duration 30 --update-bench
    repro-serve plan --seed 7            # print the deterministic plans

``smoke`` stands up the full loopback topology — origin, a shaped
3G MobileProxy leg with cap/permit authority, the service in front —
then fires the seeded chaos fleet and the open-loop load generator at
it concurrently, revokes the phone's permit mid-run, drains, and
checks the service's robustness invariants:

* every admitted flow reached a terminal outcome (zero stranded);
* the drain finished inside its deadline;
* the trace is schema-clean (every event name in the catalogue).

Exit codes follow the repo convention: 0 all invariants hold, 1 an
invariant failed, 2 usage error. ``--update-bench`` rewrites
``BENCH_service.json`` (the committed record's ``plan`` section is a
pure function of the seed; ``measured`` is wall-clock).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.service.benchrecord import (
    SERVICE_BENCH_FILENAME,
    build_service_record,
    plan_section,
    write_service_record,
)
from repro.core.captracker import CapTracker
from repro.core.permits import PermitServer
from repro.core.resilience import FlowLedger, RetryBudget
from repro.obs.capture import capture
from repro.obs.export import export_lines, parse_lines
from repro.obs.schema import EVENTS
from repro.proto import LoopbackOrigin, MobileProxy
from repro.proto.shaping import TokenBucket
from repro.service.chaos import build_plan, run_plan
from repro.service.loadgen import build_load_plan, run_load
from repro.service.server import OnloadService, ServiceLeg
from repro.util.units import bits_to_bytes, mbps


def _default_dir() -> Path:
    """Repo root when run from a checkout, else the working directory."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists():
            return parent
    return Path.cwd()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Long-running onload service: smoke and plans.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    smoke = commands.add_parser(
        "smoke",
        help="seeded chaos+load run against a live loopback service",
    )
    smoke.add_argument("--seed", type=int, default=0)
    smoke.add_argument(
        "--duration",
        type=float,
        default=30.0,
        help="seconds of offered load/chaos (default: 30)",
    )
    smoke.add_argument(
        "--rate",
        type=float,
        default=8.0,
        help="load flows per second (default: 8)",
    )
    smoke.add_argument(
        "--chaos",
        type=int,
        default=120,
        help="adversarial connections over the run (default: 120)",
    )
    smoke.add_argument(
        "--max-active",
        type=int,
        default=64,
        help="service flow-pool bound (default: 64)",
    )
    smoke.add_argument(
        "--update-bench",
        action="store_true",
        help=f"rewrite {SERVICE_BENCH_FILENAME} from this run",
    )
    smoke.add_argument(
        "--dir",
        type=Path,
        default=None,
        help="directory for the bench record (default: repo root)",
    )
    smoke.add_argument(
        "--json",
        action="store_true",
        help="print the full record as JSON instead of a summary",
    )
    plan = commands.add_parser(
        "plan", help="print the seed-derived chaos and load plans"
    )
    plan.add_argument("--seed", type=int, default=0)
    plan.add_argument("--duration", type=float, default=30.0)
    plan.add_argument("--rate", type=float, default=8.0)
    plan.add_argument("--chaos", type=int, default=120)
    return parser


def _check_trace(lines: List[str]) -> List[str]:
    """Schema-clean check over exported trace lines."""
    problems: List[str] = []
    try:
        parsed = parse_lines(lines)
    except ValueError as exc:
        return [f"trace does not parse: {exc}"]
    for event in parsed["events"]:
        name = event.get("name", "")
        if name not in EVENTS:
            problems.append(f"unknown event name {name!r} in trace")
    return problems


def _run_smoke(args: argparse.Namespace) -> int:
    seed = args.seed
    load_plan = build_load_plan(
        seed, duration_s=args.duration, rate_per_s=args.rate
    )
    chaos_plan = build_plan(
        seed, duration_s=args.duration, connections=args.chaos
    )
    failures: List[str] = []
    with capture() as handle:
        origin = LoopbackOrigin()
        with origin:
            proxy = MobileProxy(
                origin.address,
                down_bucket=TokenBucket(bits_to_bytes(mbps(4.0))),
                up_bucket=TokenBucket(bits_to_bytes(mbps(2.0))),
                name="ph1",
                recv_timeout=3.0,
            ).start()
            tracker = CapTracker(daily_budget_bytes=256 * 1024 * 1024)
            permits = PermitServer(
                utilization_fn=lambda cell, now: 0.3, obs=handle
            )
            ledger = FlowLedger(
                {"ph1": tracker}, permit_server=permits, obs=handle
            )
            service = OnloadService(
                legs=[
                    ServiceLeg("adsl", origin.address),
                    ServiceLeg(
                        "ph1", proxy.address, device="ph1", cell="c0"
                    ),
                ],
                max_active=args.max_active,
                max_queued=args.max_active // 2,
                queue_timeout_s=0.5,
                recv_timeout=3.0,
                idle_timeout=4.0,
                flow_deadline_s=15.0,
                drain_deadline_s=8.0,
                retry_budget=RetryBudget(seed=seed, obs=handle),
                ledger=ledger,
                obs=handle,
            )
            try:
                service.start()
                # Pull the phone's permit mid-run: in-flight cellular
                # flows must abort with a structured permit-revoked
                # degradation and true up their bytes.
                revoker = threading.Timer(
                    args.duration / 2.0, permits.revoke, args=("ph1",)
                )
                revoker.daemon = True
                revoker.start()
                chaos_box: Dict[str, Any] = {}
                chaos_thread = threading.Thread(
                    target=lambda: chaos_box.update(
                        report=run_plan(chaos_plan, service.address)
                    ),
                    daemon=True,
                )
                chaos_thread.start()
                load_report = run_load(load_plan, service.address)
                chaos_thread.join(timeout=args.duration + 60.0)
                revoker.cancel()
            finally:
                drain = service.stop()
                proxy.stop()
        report = service.report()
        lines = export_lines(handle, experiment_id="service-smoke")
    if report.stranded() != 0:
        failures.append(
            f"{report.stranded()} stranded flow(s) after drain"
        )
    if not drain.met_deadline:
        failures.append(
            f"drain took {drain.elapsed_s:.2f}s "
            f"(deadline {service.drain_deadline_s}s "
            f"+ grace {service.abort_grace_s}s)"
        )
    if load_report.outcomes.get("completed", 0) == 0:
        failures.append("no load flow completed — service never served")
    failures.extend(_check_trace(lines))
    record = build_service_record(
        seed, load_plan, chaos_plan, load_report, report, drain
    )
    root = args.dir if args.dir is not None else _default_dir()
    if args.update_bench:
        path = write_service_record(record, root)
        print(f"wrote {path}")
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        measured = record["measured"]
        print(
            f"service smoke seed={seed}: "
            f"offered={load_report.offered} "
            f"outcomes={measured['client']['outcomes']} "
            f"admitted={report.admitted} "
            f"p50={measured['latency_s']['p50']} "
            f"p99={measured['latency_s']['p99']} "
            f"drain={measured['drain']}"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _run_plan(args: argparse.Namespace) -> int:
    load_plan = build_load_plan(
        args.seed, duration_s=args.duration, rate_per_s=args.rate
    )
    chaos_plan = build_plan(
        args.seed, duration_s=args.duration, connections=args.chaos
    )
    print(
        json.dumps(
            plan_section(args.seed, load_plan, chaos_plan),
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "smoke":
        return _run_smoke(args)
    return _run_plan(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
