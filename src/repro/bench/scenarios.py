"""Engine-scale benchmark scenario: many concurrent flows, pure netsim.

The experiment-quick benchmarks time whole experiments, where scheduler
logic and result assembly dominate. This scenario isolates the part the
ROADMAP's fleet-scale ambition actually stresses — the discrete-event
engine and the fluid stepper under hundreds of concurrent flows — using
only the public netsim API, so the identical workload runs against any
revision of the simulator.

Everything is deterministic: sizes and stagger delays are fixed
arithmetic sequences, the stochastic bottleneck uses a pinned seed, and
the returned event counts let callers assert the workload itself has not
drifted when comparing timings across revisions.
"""

from __future__ import annotations

from typing import Dict

from repro.netsim.fluid import Flow, FluidNetwork
from repro.netsim.link import Link, StochasticLink
from repro.netsim.stochastic import LognormalProcess
from repro.util.units import kbps, mbps

#: Concurrent flows in the scenario — far above the vectorization
#: threshold, small enough to finish in well under a second.
N_FLOWS = 300

#: Pinned seed of the stochastic bottleneck's capacity process.
_SEED = 1307


def run_engine_scale() -> Dict[str, float]:
    """Run the scenario to completion; returns deterministic counters.

    ``N_FLOWS`` flows share one stochastic bottleneck (fading every 5 s)
    plus a private access link each; starts are staggered, a fifth of
    the flows are rate-capped, and periodic no-op timers ride along so
    every engine boundary source stays exercised. Returns
    ``{"flows_completed", "steps", "final_time"}`` — equal on every
    machine and every revision, by the determinism contract.
    """
    network = FluidNetwork()
    bottleneck = StochasticLink(
        "scale-bottleneck",
        mbps(400.0),
        LognormalProcess(seed=_SEED, interval=5.0, sigma=0.25),
    )
    completed = [0]

    def on_complete(flow: Flow, when: float) -> None:
        completed[0] += 1

    for i in range(N_FLOWS):
        access = Link(f"scale-access-{i}", mbps(2.0 + (i % 7) * 0.5))
        size_bytes = 200_000.0 + ((i * 37) % 97) * 8_000.0
        cap = kbps(900.0 + (i % 5) * 150.0) if i % 5 == 0 else None
        flow = Flow(
            size_bytes,
            (access, bottleneck),
            rate_cap_bps=cap,
            on_complete=on_complete,
            label=f"scale-{i}",
        )
        network.add_flow(flow, delay=(i % 20) * 0.05)

    ticks = [0]

    def tick() -> None:
        ticks[0] += 1
        if ticks[0] < 40:
            network.schedule(0.25, tick, label="scale-tick")

    network.schedule(0.25, tick, label="scale-tick")

    steps = 0
    while network.step():
        steps += 1
    return {
        "flows_completed": float(completed[0]),
        "steps": float(steps),
        "final_time": network.time,
    }


#: Fleet-scale scenario size: the ROADMAP's 10^5-household city day.
FLEET_HOUSEHOLDS = 100_000

#: Pinned city seed and adoption for the fleet benchmark.
_FLEET_SEED = 0
_FLEET_ADOPTION = 0.5

#: Oversubscribed backhaul (Mbps) so peak-hour contention — the very
#: thing the sharded round exchange exists to resolve — is exercised.
_FLEET_BACKHAUL_MBPS = 16.0


def run_fleet_scale() -> Dict[str, float]:
    """One sharded city day at 10^5 households; deterministic counters.

    Runs the multi-provider policy (the heavier of the two onload
    policies: every sector grants, so caps actually burn) over the
    default shard partition. The returned
    integer-byte totals are covered by the deterministic-merge contract
    (``docs/FLEET.md``), so any drift means the workload itself changed
    and timings are not comparable.
    """
    from repro.fleet.dispatcher import run_policy
    from repro.fleet.population import FleetParameters

    params = FleetParameters(
        n_households=FLEET_HOUSEHOLDS,
        seed=_FLEET_SEED,
        dslam_backhaul_bps=mbps(_FLEET_BACKHAUL_MBPS),
    )
    run = run_policy(params, "multi-provider", _FLEET_ADOPTION)
    return {
        "n_households": float(FLEET_HOUSEHOLDS),
        "adsl_bytes": float(run.total_adsl_bytes),
        "onload_bytes": float(run.total_onload_bytes),
        "cap_exhaustions": float(run.cap_exhaustions),
        "backlog_bytes": float(run.round_backlog[-1]),
    }
