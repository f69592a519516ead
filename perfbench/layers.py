"""Where the traced run puts its spans, and the per-layer metrics they give.

Every span wraps a call into one layer of the program from outside
(:class:`tracer.Patches`); ``src/`` is not modified. The table below is
the whole instrumentation:

=================  ==================================================
span               wrapped calls
=================  ==================================================
scheduler.start    ``TransactionRunner.start``
scheduler.decide   ``next_item`` / ``on_item_complete`` of every
                   ``SchedulingPolicy`` class that defines them
netsim.step        ``FluidNetwork.step`` and ``FluidNetwork.run``
netsim.advance     ``FluidNetwork._advance_transfer`` (once per step
                   on both stepping paths; its count is the step count)
netsim.add_flow    ``FluidNetwork.add_flow``
netsim.abort       ``FluidNetwork.abort_flow``
netsim.timer       ``SimulationEngine.schedule_at`` / ``schedule_in``
engine.queue       ``EventQueue.schedule`` / ``EventQueue.pop_due``
fleet.population   ``sample_population`` (dispatcher and shard caches)
fleet.shard_pop    ``shard_population``
fleet.offer/...    the ``offer`` / ``settle_onload`` / ``finish_round``
                   kernels the leg functions call
fleet.dispatch     ``run_policy`` (the dispatcher's and ext-fleet's name)
fleet.exchange     ``_Exchange.map`` (plus the pickled size of the
                   arguments it is handed)
fleet.report       ``FleetReport.from_outcome`` / ``digest`` /
                   ``check_conservation``
service.flow       ``OnloadService._serve_flow`` (one per connection)
service.admit      ``AdmissionController.try_admit``
(no span)          ``AdmissionController._grant`` / ``_shed``: the
                   active and queued counts at each decision, whose
                   maxima are the peaks while the wrappers are in
service.ledger     ``FlowLedger`` open/meter/settle/may_onload
proto.read         ``httpwire.read_until_blank_line`` / ``read_body``
proto.render       ``httpwire.render_request`` / ``render_response``
=================  ==================================================
"""

from __future__ import annotations

import math
import pickle
import threading
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Sequence,
    Tuple,
)

from tracer import Patches, SpanStats, Tracer

#: (name, unit, better) of every per-layer metric, in report order.
FLEET_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("fleet.population_s", "s", "lower"),
    ("fleet.shard_population_s", "s", "lower"),
    ("fleet.offer_s", "s", "lower"),
    ("fleet.settle_s", "s", "lower"),
    ("fleet.finish_s", "s", "lower"),
    ("fleet.leg_calls", "count", "lower"),
    ("fleet.dispatch_s", "s", "lower"),
    ("fleet.report_s", "s", "lower"),
    ("fleet.exchange_calls", "count", "lower"),
    ("fleet.exchange_s", "s", "lower"),
    ("fleet.exchange_bytes", "bytes", "lower"),
)

SHED_REASONS = ("overload", "queue-timeout", "draining")

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("experiments.run_s", "s", "lower"),
    ("experiments.render_s", "s", "lower"),
    ("experiments.serialize_s", "s", "lower"),
    ("scheduler.transactions", "count", "lower"),
    ("scheduler.decisions", "count", "lower"),
    ("scheduler.decide_s", "s", "lower"),
    ("netsim.steps", "count", "lower"),
    ("netsim.step_s", "s", "lower"),
    ("netsim.flows_added", "count", "lower"),
    ("netsim.flows_aborted", "count", "lower"),
    ("netsim.abort_ratio", "ratio", "lower"),
    ("netsim.timers", "count", "lower"),
    ("engine.queue_ops", "count", "lower"),
    ("engine.queue_s", "s", "lower"),
    *FLEET_METRICS,
    ("service.admit_s", "s", "lower"),
    ("service.queued_ms.p99", "ms", "lower"),
    *((f"service.shed.{reason}", "count", "lower") for reason in SHED_REASONS),
    ("service.peak_active", "count", "lower"),
    ("service.peak_queued", "count", "lower"),
    ("service.flow_ms.p50", "ms", "lower"),
    ("service.flow_ms.p99", "ms", "lower"),
    ("service.ledger_s", "s", "lower"),
    ("proto.read_s", "s", "lower"),
    ("proto.render_s", "s", "lower"),
    ("service.peak_threads", "count", "lower"),
    ("loadgen.late_ms.max", "ms", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)

def pickled_size(obj: Any) -> int:
    """Bytes ``obj`` pickles to; array buffers counted, not copied."""
    buffers: List[pickle.PickleBuffer] = []
    data = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    return len(data) + sum(buffer.raw().nbytes for buffer in buffers)


def _policy_classes() -> List[type]:
    from repro.core.scheduler.base import SchedulingPolicy

    found: List[type] = []
    pending = [SchedulingPolicy]
    while pending:
        cls = pending.pop()
        if cls not in found:  # a diamond reaches a class twice
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return found


def _admit_probe(
    tracer: Tracer, func: Callable[..., Any]
) -> Callable[..., Any]:
    def try_admit(self: Any) -> Any:
        frame = tracer.enter("service.admit")
        try:
            decision = func(self)
        finally:
            tracer.exit(frame)
        tracer.observe("service.queued_s", decision.queued_s)
        tracer.observe("service.threads", float(threading.active_count()))
        return decision

    return try_admit


def _decision_probe(
    tracer: Tracer, func: Callable[..., Any]
) -> Callable[..., Any]:
    def decide(self: Any, *args: Any) -> Any:
        decision = func(self, *args)
        # Called under the controller's lock, after a grant counted its
        # flow and before a queued flow leaves the queue: every peak of
        # either count is read here.
        tracer.observe("service.active", float(self._active))
        tracer.observe("service.queued", float(self._queued))
        return decision

    return decide


def _exchange_probe(
    tracer: Tracer, func: Callable[..., Any]
) -> Callable[..., Any]:
    def map(self: Any, fn: Any, per_shard_args: Any) -> Any:
        # Sized outside the span: the measurement is not the exchange.
        tracer.observe(
            "fleet.exchange_bytes",
            float(
                sum(
                    pickled_size(
                        (fn, self.params, self.n_shards, shard, *args)
                    )
                    for shard, args in enumerate(per_shard_args)
                )
            ),
        )
        frame = tracer.enter("fleet.exchange")
        try:
            return func(self, fn, per_shard_args)
        finally:
            tracer.exit(frame)

    return map


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer boundary in the table above."""
    from repro.core.resilience import FlowLedger
    from repro.core.scheduler.runner import TransactionRunner
    from repro.experiments import ext_fleet
    from repro.fleet import dispatcher, shard
    from repro.fleet.report import FleetReport
    from repro.netsim.engine import EventQueue, SimulationEngine
    from repro.netsim.fluid import FluidNetwork
    from repro.proto import httpwire
    from repro.service.admission import AdmissionController
    from repro.service.server import OnloadService

    patches.wrap(tracer, TransactionRunner, "start", "scheduler.start")
    for cls in _policy_classes():
        for attr in ("next_item", "on_item_complete"):
            if attr in vars(cls):
                patches.wrap(tracer, cls, attr, "scheduler.decide")
    patches.wrap(tracer, FluidNetwork, "step", "netsim.step")
    patches.wrap(tracer, FluidNetwork, "run", "netsim.step")
    patches.wrap(tracer, FluidNetwork, "_advance_transfer", "netsim.advance")
    patches.wrap(tracer, FluidNetwork, "add_flow", "netsim.add_flow")
    patches.wrap(tracer, FluidNetwork, "abort_flow", "netsim.abort")
    patches.wrap(tracer, SimulationEngine, "schedule_at", "netsim.timer")
    patches.wrap(tracer, SimulationEngine, "schedule_in", "netsim.timer")
    patches.wrap(tracer, EventQueue, "schedule", "engine.queue")
    patches.wrap(tracer, EventQueue, "pop_due", "engine.queue")

    patches.wrap(tracer, dispatcher, "sample_population", "fleet.population")
    patches.wrap(tracer, shard, "sample_population", "fleet.population")
    patches.wrap(tracer, dispatcher, "shard_population", "fleet.shard_pop")
    patches.wrap(tracer, dispatcher, "offer", "fleet.offer")
    patches.wrap(tracer, dispatcher, "settle_onload", "fleet.settle")
    patches.wrap(tracer, dispatcher, "finish_round", "fleet.finish")
    # ext-fleet holds its own reference to run_policy.
    patches.wrap(tracer, dispatcher, "run_policy", "fleet.dispatch")
    patches.wrap(tracer, ext_fleet, "run_policy", "fleet.dispatch")
    patches.replace(
        dispatcher._Exchange,
        "map",
        _exchange_probe(tracer, dispatcher._Exchange.map),
    )
    for attr in ("from_outcome", "digest", "check_conservation"):
        patches.wrap(tracer, FleetReport, attr, "fleet.report")

    patches.wrap(tracer, OnloadService, "_serve_flow", "service.flow")
    patches.replace(
        AdmissionController,
        "try_admit",
        _admit_probe(tracer, AdmissionController.try_admit),
    )
    for attr in ("_grant", "_shed"):
        patches.replace(
            AdmissionController,
            attr,
            _decision_probe(tracer, getattr(AdmissionController, attr)),
        )
    for attr in ("open_flow", "meter", "settle", "may_onload"):
        patches.wrap(tracer, FlowLedger, attr, "service.ledger")
    for attr in ("read_until_blank_line", "read_body"):
        patches.wrap(tracer, httpwire, attr, "proto.read")
    for attr in ("render_request", "render_response"):
        patches.wrap(tracer, httpwire, attr, "proto.render")


# ----------------------------------------------------------------------
# Per-layer metrics from the aggregates
# ----------------------------------------------------------------------


def _self(stats: Mapping[str, SpanStats], *names: str) -> float:
    return sum(stats[n].self_s for n in names if n in stats)


def _outer(stats: Mapping[str, SpanStats], name: str) -> int:
    return stats[name].outer_calls if name in stats else 0


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (no interpolation); 0 if
    there are none."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def fleet_metrics(
    stats: Mapping[str, SpanStats], exchange_bytes: List[float]
) -> Dict[str, float]:
    """The ``fleet.*`` metrics."""
    return {
        "fleet.population_s": _self(stats, "fleet.population"),
        "fleet.shard_population_s": _self(stats, "fleet.shard_pop"),
        "fleet.offer_s": _self(stats, "fleet.offer"),
        "fleet.settle_s": _self(stats, "fleet.settle"),
        "fleet.finish_s": _self(stats, "fleet.finish"),
        "fleet.leg_calls": float(
            sum(
                _outer(stats, name)
                for name in ("fleet.offer", "fleet.settle", "fleet.finish")
            )
        ),
        "fleet.dispatch_s": _self(stats, "fleet.dispatch"),
        "fleet.report_s": _self(stats, "fleet.report"),
        "fleet.exchange_calls": float(_outer(stats, "fleet.exchange")),
        "fleet.exchange_s": _self(stats, "fleet.exchange"),
        "fleet.exchange_bytes": float(sum(exchange_bytes)),
    }


def layer_metrics(
    stats: Mapping[str, SpanStats], values: Mapping[str, List[float]]
) -> Dict[str, float]:
    """Scheduler, netsim, engine and service-span metrics."""
    added = _outer(stats, "netsim.add_flow")
    aborted = _outer(stats, "netsim.abort")
    queued = [v * 1e3 for v in values.get("service.queued_s", [])]
    return {
        "scheduler.transactions": float(_outer(stats, "scheduler.start")),
        "scheduler.decisions": float(_outer(stats, "scheduler.decide")),
        "scheduler.decide_s": _self(stats, "scheduler.decide"),
        "netsim.steps": float(_outer(stats, "netsim.advance")),
        "netsim.step_s": _self(stats, "netsim.step", "netsim.advance"),
        "netsim.flows_added": float(added),
        "netsim.flows_aborted": float(aborted),
        "netsim.abort_ratio": aborted / added if added else 0.0,
        "netsim.timers": float(_outer(stats, "netsim.timer")),
        "engine.queue_ops": float(_outer(stats, "engine.queue")),
        "engine.queue_s": _self(stats, "engine.queue"),
        "service.admit_s": _self(stats, "service.admit"),
        "service.queued_ms.p99": nearest_rank(queued, 99),
        "service.ledger_s": _self(stats, "service.ledger"),
        "proto.read_s": _self(stats, "proto.read"),
        "proto.render_s": _self(stats, "proto.render"),
        "service.peak_threads": max(values.get("service.threads", [0.0])),
    }


def complete(partial: Mapping[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric with its unit; layers a workload does not
    run report 0."""
    unknown = set(partial) - {name for name, _, _ in PER_LAYER}
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {
        name: {"value": float(partial.get(name, 0.0)), "unit": unit}
        for name, unit, _ in PER_LAYER
    }
