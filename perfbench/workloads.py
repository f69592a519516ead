"""The two workloads: paper-quick and relay.

Each workload is a function ``(seed, seconds, trace) -> Result``. It
derives every input from the seed, drives only public entry points of
the program, repeats its unit of work until ``seconds`` have passed (at
least once), checks the outputs, and reports

* the contract metrics ``setup_s`` and ``throughput`` (their
  per-workload meaning is in ``perfbench/README.md``);
* the workload's own named metrics (``suite_s``, ``p99_ms.r150``, ...),
  ``error_rate`` among them;
* with ``trace`` on, the per-layer metrics of one traced unit instead,
  next to an untraced unit of the same inputs for the overhead.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import layers
from layers import nearest_rank
from tracer import Patches, SpanStats, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC: Dict[str, Any] = json.loads((HERE / "spec.json").read_text("utf-8"))

#: CPUs this process may run on; bounds the relay generator's threads
#: and connections.
NPROC = len(os.sched_getaffinity(0))


def _split_cpus() -> Tuple[Optional[Set[int]], Optional[int]]:
    """CPUs for the service's threads and the generator's one CPU, so
    the two processes do not preempt each other (none on one CPU)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return set(cpus[:-1]), cpus[-1]


#: The relay pins its service threads and its generator apart.
SERVICE_CPUS, CLIENT_CPU = _split_cpus()

#: Relay set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 25

#: CPU seconds one :func:`calibration_s` job takes on the machine the
#: contract metrics are scaled to: the 2-vCPU VM the benchmark was
#: built on, with little other load.
REFERENCE_S = 0.01


def calibration_s(runs: int = 1) -> float:
    """Median CPU time of ``runs`` runs of a fixed pure-Python job.

    Other tenants of the machine slow the workloads' code by up to 2x
    for minutes at a time, through the caches and memory they share; a
    tight arithmetic loop hardly slows with it, but this job (about a
    megabyte of dicts, tuples, lists and floats, then a sort) does. The
    contract metrics scale each timing by ``REFERENCE_S`` over the
    calibration measured next to it, which takes out most of that
    drift; the named metrics stay unscaled.
    """
    samples = []
    for _ in range(runs):
        started = time.process_time()
        table: Dict[Tuple[int, int], List[float]] = {}
        for i in range(10_000):
            table[(i * 7919) % 100_003, i & 255] = [float(i)] * 3
        sorted(table.items(), key=lambda item: item[1][0] % 977)
        samples.append(time.process_time() - started)
    return statistics.median(samples)


@dataclass
class Result:
    """What one workload run measured and checked."""

    #: Contract end-to-end metrics (name -> value).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: The workload's own named end-to-end metrics, for people.
    named: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics (traced runs only).
    layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Span aggregates and raw spans of the traced unit (for the file).
    trace: Dict[str, Any] = field(default_factory=dict)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


class Clock:
    """Decides whether another pass fits in the run's ``seconds``."""

    def __init__(self, seconds: float) -> None:
        self.deadline = time.perf_counter() + seconds
        self.last_s = 0.0
        self._mark = time.perf_counter()

    def more(self, done: int) -> bool:
        """Another pass, unless one is done and the next would end more
        than half a pass past the deadline."""
        now = time.perf_counter()
        self.last_s, self._mark = now - self._mark, now
        return done < 1 or now + self.last_s / 2 < self.deadline


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _trace_record(
    tracer: Tracer, stats: Dict[str, SpanStats]
) -> Dict[str, Any]:
    return {
        "stats": {
            name: vars(s) for name, s in sorted(stats.items())
        },
        "spans": tracer.spans,
        "dropped_spans": tracer.dropped,
    }


def _finish_layers(
    result: Result,
    tracer: Tracer,
    stats: Dict[str, SpanStats],
    values: Dict[str, List[float]],
    extra: Dict[str, float],
) -> None:
    metrics = layers.layer_metrics(stats, values)
    metrics.update(extra)
    result.layer = metrics
    result.trace = _trace_record(tracer, stats)


# ----------------------------------------------------------------------
# paper-quick
# ----------------------------------------------------------------------

DISCOVER = "from repro.experiments import registry; registry.discover()"


def _timed_child(code: str) -> float:
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        cwd=ROOT,
        check=True,
        timeout=120,
    )
    return time.perf_counter() - started


def suite_digest(outcomes: Sequence[Any]) -> str:
    """SHA-256 over every experiment's payload JSON, in id order."""
    hasher = hashlib.sha256()
    for outcome in sorted(outcomes, key=lambda o: o.experiment_id):
        hasher.update(outcome.experiment_id.encode("utf-8") + b"\0")
        hasher.update(json.dumps(outcome.payload, sort_keys=True).encode())
        hasher.update(b"\0")
    return hasher.hexdigest()


def _check_suite(result: Result, outcomes: Sequence[Any]) -> str:
    result.attempted += len(outcomes)
    bad = [o.experiment_id for o in outcomes if o.status != "ok"]
    if bad:
        result.fail(len(bad), f"experiments not ok: {bad}")
    digest = suite_digest(outcomes)
    if digest != SPEC["expected"]["paper-quick"]["digest"]:
        result.fail(
            len(outcomes) - len(bad), f"suite digest {digest} != recorded"
        )
    return digest


def paper_quick(seed: int, seconds: float, trace: bool) -> Result:
    """Every registered experiment at the quick profile, ``jobs=1``.

    The seed only shuffles the execution order: each experiment resets
    its own id streams, so the payload digest is the recorded one for
    every seed.
    """
    _timed_child(DISCOVER)  # warms the bytecode cache; not timed
    setup = [
        _timed_child(DISCOVER) * REFERENCE_S / calibration_s(3)
        for _ in range(5)
    ]

    from repro.experiments import registry
    from repro.experiments.runner import run_experiments

    registry.discover()
    ids = list(registry.experiment_ids())
    orders = random.Random(seed)
    result = Result()

    def one_pass(
        calibrate: bool,
    ) -> Tuple[float, float, List[float], List[Any]]:
        """Wall and CPU seconds of one pass in a fresh order, the
        calibrations run after each experiment, and the outcomes."""
        order = list(ids)
        orders.shuffle(order)
        samples: List[float] = []
        cpu_s = [0.0]
        mark = [time.process_time()]

        def done(outcome: Any) -> None:
            cpu_s[0] += time.process_time() - mark[0]
            if calibrate:
                samples.append(calibration_s())
            mark[0] = time.process_time()

        started = time.perf_counter()
        outcomes = run_experiments(
            order, jobs=1, quick=True, on_complete=done
        )
        return time.perf_counter() - started, cpu_s[0], samples, outcomes

    if trace:
        plain_s, _, _, outcomes = one_pass(calibrate=False)
        plain_digest = _check_suite(result, outcomes)
        tracer = Tracer()
        with Patches() as patches:
            layers.install(tracer, patches)
            root = tracer.enter("bench.pass")
            traced_s, _, _, outcomes = one_pass(calibrate=False)
            tracer.exit(root)
        if _check_suite(result, outcomes) != plain_digest:
            result.fail(len(outcomes), "traced digest differs from untraced")
        stats = tracer.take()
        profile = {
            phase: sum(o.profile[phase] for o in outcomes if o.profile)
            for phase in ("run_s", "render_s", "serialize_s")
        }
        unattributed = (
            stats["bench.pass"].self_s
            - profile["render_s"]
            - profile["serialize_s"]
        )
        extra = {f"experiments.{k}": v for k, v in profile.items()}
        extra.update(
            layers.fleet_metrics(
                stats, tracer.take_values().get("fleet.exchange_bytes", [])
            )
        )
        extra["trace.overhead"] = traced_s / plain_s - 1.0
        extra["trace.unattributed_share"] = max(
            0.0, unattributed / stats["bench.pass"].total_s
        )
        _finish_layers(result, tracer, stats, {}, extra)
        result.named = {"suite_s": plain_s, "traced_suite_s": traced_s}
        return result

    wall_s: Dict[str, List[float]] = {}
    cpu_s: List[float] = []
    scaled_s: List[float] = []
    clock = Clock(seconds)
    while clock.more(len(cpu_s)):
        _, pass_cpu_s, samples, outcomes = one_pass(calibrate=True)
        _check_suite(result, outcomes)
        # Every experiment runs on this one thread and never sleeps, so
        # on an idle machine its CPU time is its wall time; CPU time
        # leaves out the stretches other tenants hold the CPU.
        cpu_s.append(pass_cpu_s)
        scaled_s.append(pass_cpu_s * REFERENCE_S / statistics.median(samples))
        for o in outcomes:
            if o.profile:
                wall_s.setdefault(o.experiment_id, []).append(
                    sum(o.profile.values())
                )
    result.metrics = {
        "setup_s": statistics.median(setup),
        "throughput": len(ids) / statistics.median(scaled_s),
    }
    result.named = {
        "setup_s": result.metrics["setup_s"],
        # The sum of each experiment's least-disturbed wall time.
        "suite_s": sum(min(v) for v in wall_s.values()),
        "suite_cpu_s": statistics.median(cpu_s),
    }
    return result


# ----------------------------------------------------------------------
# relay
# ----------------------------------------------------------------------

RELAY = SPEC["relay"]
LADDER: Tuple[int, ...] = tuple(RELAY["ladder"])
FIXED_RATES: Tuple[int, ...] = tuple(RELAY["fixed_rates"])
P99_LIMIT_MS: float = RELAY["p99_limit_ms"]
#: Allowed growth of the generator's lateness across one block (median
#: of the last fifth of flows minus median of the first fifth).
LATE_GROWTH_MS: float = RELAY["late_growth_ms"]
#: Offered rate far above what two connections can carry: the relay
#: then completes flows back to back, at its capacity.
SATURATION_RATE: int = RELAY["saturation_rate"]
#: Flows per block; every measurement below is made of blocks.
BLOCK_FLOWS: int = RELAY["block_flows"]


class Topology:
    """Origin, an unshaped metered phone proxy, and the service."""

    def __init__(self) -> None:
        from repro.core.captracker import CapTracker
        from repro.core.permits import PermitServer
        from repro.core.resilience import FlowLedger
        from repro.proto import LoopbackOrigin, MobileProxy
        from repro.service.server import OnloadService, ServiceLeg

        self.origin = LoopbackOrigin().start()
        self.proxy = MobileProxy(self.origin.address, name="ph1").start()
        tracker = CapTracker(daily_budget_bytes=1 << 40)
        permits = PermitServer(utilization_fn=lambda cell, now: 0.3)
        self.ledger = FlowLedger({"ph1": tracker}, permit_server=permits)
        self.service = OnloadService(
            legs=[
                ServiceLeg("adsl", self.origin.address),
                ServiceLeg(
                    "ph1", self.proxy.address, device="ph1", cell="c0"
                ),
            ],
            ledger=self.ledger,
        ).start()

    def probe(self) -> None:
        """One upload per leg (legs alternate), so every hop is live."""
        from relay_client import send

        for leg in range(2):
            path = f"/bench/probe-{id(self)}-{leg}"
            if send(self.service.address, path, 64) != 200:
                raise RuntimeError(f"relay probe {path} failed")

    def stop(self) -> Any:
        drain = self.service.stop()
        self.proxy.stop()
        self.origin.stop()
        return drain


def _start_topology() -> float:
    started = time.perf_counter()
    topology = Topology()
    topology.probe()
    elapsed = time.perf_counter() - started
    topology.stop()
    return elapsed


@dataclass
class Block:
    """One generator process's flows at one offered rate."""

    rate: int
    #: Seed of the block's load plan.
    seed: int
    latencies_ms: List[float]
    late_ms: List[float]
    #: Flows answered 200, flows without a 200, and 200s whose stored
    #: byte count at the origin is wrong.
    ok: int
    failed: int
    mismatched: int
    #: Bytes the origin stored for this block's 200s.
    stored_bytes: int
    #: Completed flows per second, first due time to last completion.
    completed_per_s: float
    #: CPU seconds of this process (service, origin and proxy threads)
    #: while the block ran.
    cpu_s: float = 0.0

    @property
    def p50_ms(self) -> float:
        return nearest_rank(self.latencies_ms, 50)

    @property
    def p99_ms(self) -> float:
        return nearest_rank(self.latencies_ms, 99)

    @property
    def late_growth_ms(self) -> float:
        fifth = max(1, len(self.late_ms) // 5)
        return statistics.median(self.late_ms[-fifth:]) - statistics.median(
            self.late_ms[:fifth]
        )

    @property
    def counts(self) -> Tuple[int, int, int, int]:
        """What must not change when the same plan is replayed."""
        return self.ok, self.failed, self.mismatched, self.stored_bytes

    @property
    def passes(self) -> bool:
        """Meets the p99 limit, nothing failed, lateness did not grow."""
        return (
            self.p99_ms <= P99_LIMIT_MS
            and self.failed == 0
            and self.mismatched == 0
            and self.late_growth_ms <= LATE_GROWTH_MS
        )


def _run_block(
    topology: Topology, seed: int, rate: int, tag: str
) -> Block:
    # This thread only waits for the generator: the CPU time is the
    # relay's.
    cpu_before = time.process_time()
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "relay_client.py"),
            "--port",
            str(topology.service.port),
            "--seed",
            str(seed),
            "--rate",
            str(rate),
            "--flows",
            str(BLOCK_FLOWS),
            "--workers",
            str(NPROC),
            "--tag",
            tag,
            *(["--cpu", str(CLIENT_CPU)] if CLIENT_CPU is not None else []),
        ],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=150,
    )
    cpu_s = time.process_time() - cpu_before
    client = json.loads(completed.stdout.splitlines()[-1])
    if client["peak_in_flight"] > NPROC or client["peak_workers"] > NPROC:
        raise RuntimeError(f"generator exceeded {NPROC} connections")
    uploads = topology.origin.uploads
    latencies: List[float] = []
    late: List[float] = []
    failed = mismatched = stored = 0
    last_done = 0.0
    for row in client["rows"]:
        _, status, latency_s, late_s, body_bytes, path, offset_s = row
        late.append(1e3 * late_s)
        if status != 200:
            failed += 1
            continue
        stored += uploads.get(path, 0)
        if uploads.get(path) != body_bytes:
            mismatched += 1
        latencies.append(1e3 * latency_s)
        last_done = max(last_done, offset_s + latency_s)
    first_due = client["rows"][0][6]
    return Block(
        rate=rate,
        seed=seed,
        latencies_ms=latencies or [math.inf],
        late_ms=late,
        ok=len(latencies),
        failed=failed,
        mismatched=mismatched,
        stored_bytes=stored,
        completed_per_s=len(latencies) / max(last_done - first_due, 1e-9),
        cpu_s=cpu_s,
    )


def knee(blocks: Sequence[Block]) -> float:
    """Rate of the highest ladder step that passes, 0 if none does.

    ``blocks`` is one block per ladder step, in rising rate, ending at
    the first step that does not pass.
    """
    rate = 0.0
    for block in blocks:
        if not block.passes:
            break
        rate = float(block.rate)
    return rate


def _check_blocks(result: Result, blocks: Sequence[Block]) -> None:
    """Count every flow: one without a 200, or a 200 whose stored byte
    count is wrong, fails. No block sheds on purpose: the generator's
    ``nproc`` connections are far below the service's admission pool."""
    for block in blocks:
        result.attempted += BLOCK_FLOWS
        if block.mismatched:
            result.fail(block.mismatched, f"r{block.rate}: byte mismatch")
        if block.failed:
            result.fail(block.failed, f"r{block.rate}: {block.failed} failed")


def _check_drain(result: Result, topology: Topology) -> None:
    drain = topology.stop()
    stranded = topology.service.report().stranded()
    result.attempted += 1
    if stranded or not drain.met_deadline:
        result.fail(1, f"drain: stranded {stranded}, {drain}")


#: A busy loop that runs only when its CPU has nothing else to do. It
#: exits at once where the idle scheduling class is not available, and
#: by itself if the benchmark dies without stopping it.
IDLE_SPINNER = """\
import os, sys
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    sys.exit(0)
os.sched_setaffinity(0, {%(cpu)d})
while os.getppid() == %(parent)d:
    for _ in range(100_000):
        pass
"""


class IdleSpinners:
    """One :data:`IDLE_SPINNER` process per CPU while the relay runs.

    On a virtual machine a thread woken on an idle (halted) CPU waits
    for the hypervisor to schedule that CPU again; with other tenants
    busy that wait made the relay's capacity swing 4x between runs. The
    spinners keep every CPU out of idle and yield to any real work.
    """

    def __enter__(self) -> "IdleSpinners":
        self.processes = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    IDLE_SPINNER % {"cpu": cpu, "parent": os.getpid()},
                ]
            )
            for cpu in sorted(os.sched_getaffinity(0))
        ]
        return self

    def __exit__(self, *exc: object) -> None:
        for process in self.processes:
            process.kill()
        for process in self.processes:
            process.wait()


def relay(seed: int, seconds: float, trace: bool) -> Result:
    """Open-loop uploads through a live service at fixed rates, at
    saturation, and up a rate ladder."""
    original = os.sched_getaffinity(0)
    with IdleSpinners():
        if SERVICE_CPUS is not None:
            # Threads inherit the affinity of the thread starting them.
            os.sched_setaffinity(0, SERVICE_CPUS)
        try:
            return _relay(seed, seconds, trace)
        finally:
            os.sched_setaffinity(0, original)


def _relay(seed: int, seconds: float, trace: bool) -> Result:
    setup = [_start_topology() for _ in range(SETUP_REPEATS)]
    setup_scale = REFERENCE_S / calibration_s(3)
    result = Result()
    topology = Topology()
    blocks: List[Block] = []
    block_seeds = iter(range(seed * 1000, seed * 1000 + 1000))

    def block(rate: int, tag: str, plan_seed: Optional[int] = None) -> Block:
        if plan_seed is None:
            plan_seed = next(block_seeds)
        measured = _run_block(topology, plan_seed, rate, tag)
        blocks.append(measured)
        return measured

    try:
        block(FIXED_RATES[-1], "warmup")
        if trace:
            return _relay_traced(result, topology, blocks, block)
        started = time.perf_counter()
        # The knee ladder: the fixed rates, then one block per higher
        # step until a step misses the limit.
        ladder = [block(rate, f"r{rate}") for rate in FIXED_RATES]
        for rate in LADDER:
            if rate in FIXED_RATES:
                continue
            ladder.append(block(rate, f"r{rate}"))
            if not ladder[-1].passes:
                break
        saturated: List[Block] = []
        #: Flows per CPU second of each saturation block, scaled.
        scaled_per_s: List[float] = []
        while (
            len(saturated) < 3
            or time.perf_counter() - started < 0.9 * seconds
        ):
            sat = block(SATURATION_RATE, f"sat-{len(saturated)}")
            saturated.append(sat)
            scaled_per_s.append(
                sat.ok / sat.cpu_s * calibration_s(3) / REFERENCE_S
            )
    finally:
        if topology.service.lifecycle.state != "stopped":
            _check_drain(result, topology)
    _check_blocks(result, blocks)
    # At saturation the service's CPU is the bottleneck, so flows per
    # CPU second is its capacity without the wake-up delays other
    # tenants add, which swing the wall-clock figure by 2x.
    result.metrics = {
        "setup_s": statistics.median(setup) * setup_scale,
        "throughput": statistics.median(scaled_per_s),
    }
    result.named = {"setup_s": statistics.median(setup)}
    for fixed in ladder[: len(FIXED_RATES)]:
        result.named[f"p50_ms.r{fixed.rate}"] = fixed.p50_ms
        result.named[f"p99_ms.r{fixed.rate}"] = fixed.p99_ms
    # Other tenants slow whole stretches of a run; the wall-clock
    # capacity is the least-disturbed saturation block.
    result.named["capacity_flows_per_s"] = max(
        b.completed_per_s for b in saturated
    )
    result.named["knee_flows_per_s"] = knee(ladder)
    return result


def _relay_traced(
    result: Result,
    topology: Topology,
    blocks: List[Block],
    block: Callable[..., Block],
) -> Result:
    """The fixed-rate blocks untraced, then the same plans traced."""
    plain = [block(rate, f"plain-r{rate}") for rate in FIXED_RATES]
    records_before = len(topology.service.report().flows)
    admission_before = topology.service.admission.stats()
    tracer = Tracer()
    with Patches() as patches:
        layers.install(tracer, patches)
        traced = [
            block(p.rate, f"traced-r{p.rate}", p.seed) for p in plain
        ]
    admission = topology.service.admission.stats()
    _check_drain(result, topology)
    _check_blocks(result, blocks)
    for p, t in zip(plain, traced):
        result.attempted += 1
        if p.counts != t.counts:
            result.fail(
                1, f"r{p.rate}: traced counts {t.counts} != {p.counts}"
            )
    stats = tracer.take()
    values = tracer.take_values()
    flow_ms = [
        1e3 * record.latency_s
        for record in topology.service.report().flows[records_before:]
    ]
    flow = stats.get("service.flow", SpanStats())
    extra = {
        f"service.shed.{reason}": float(
            admission.shed.get(reason, 0)
            - admission_before.shed.get(reason, 0)
        )
        for reason in layers.SHED_REASONS
    }
    extra.update(
        {
            "service.peak_active": max(values.get("service.active", [0.0])),
            "service.peak_queued": max(values.get("service.queued", [0.0])),
            "service.flow_ms.p50": nearest_rank(flow_ms, 50),
            "service.flow_ms.p99": nearest_rank(flow_ms, 99),
            "loadgen.late_ms.max": max(ms for b in traced for ms in b.late_ms),
            "trace.overhead": statistics.mean(
                t.p50_ms / p.p50_ms for t, p in zip(traced, plain)
            )
            - 1.0,
            "trace.unattributed_share": flow.self_s / flow.total_s
            if flow.total_s
            else 0.0,
        }
    )
    _finish_layers(result, tracer, stats, values, extra)
    result.named = {
        f"p50_ms.r{b.rate}": b.p50_ms for b in plain
    }
    return result


WORKLOADS: Dict[str, Callable[[int, float, bool], Result]] = {
    "paper-quick": paper_quick,
    "relay": relay,
}
