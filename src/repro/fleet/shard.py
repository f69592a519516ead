"""Shard legs: vectorized per-round household dynamics for one shard.

A shard owns every household whose cell sector lands on it under
round-robin sector partitioning (``sector % n_shards == shard``), so
sector capacity is always shard-local; DSLAM backhauls and the permit
server span shards and are resolved by the dispatcher's per-round
exchange (``docs/FLEET.md``).

Every leg reads only its own shard's population slice (recomputed from
the seed and cached per process) and state, which it updates in place,
and every cross-household sum is integer bytes — which is what makes
the merged report byte-identical at any shard count.

Each round runs three legs per shard (the bounded fixed-point
exchange):

1. :func:`offer` — absorb the round's arrivals, estimate the ADSL
   service from the *previous* round's realized DSLAM allocation
   factor, and offer the uncovered spill to the 3G leg (bounded by the
   household ceiling and the remaining daily cap).
2. :func:`settle_onload` — apply the dispatcher's onload verdict
   (grants, sector pools), meter caps, and report the DSLAM demand
   that *remains* after onload relief.
3. :func:`finish_round` — allocate the shared DSLAM backhaul
   proportionally from the global totals, drain backlogs, and account
   waste: onloaded bytes whose ADSL line share went unused (the §6
   critique — cap bytes burned while the fixed line had headroom).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.fleet.population import (
    FleetParameters,
    Population,
    sample_population,
)

__all__ = [
    "AdslVerdict",
    "Offers",
    "OnloadVerdict",
    "RoundAggregates",
    "ShardFinal",
    "ShardPopulation",
    "ShardState",
    "finish_round",
    "initial_state",
    "offer",
    "settle_onload",
    "shard_final",
    "shard_population",
]

#: Onload policies. ``adsl-only`` is the no-onload baseline; the other
#: two are the paper's §6 (device-side caps only) and §7/§2.4
#: (network-integrated permit backend) architectures.
POLICIES = ("adsl-only", "multi-provider", "network-integrated")


@dataclass(frozen=True)
class ShardPopulation:
    """One shard's slice of the city, in ascending household-id order."""

    params: FleetParameters
    shard: int
    n_shards: int
    #: Global household ids of this shard's rows.
    household_ids: NDArray[np.int64] = field(repr=False)
    dslam_of: NDArray[np.int64] = field(repr=False)
    sector_of: NDArray[np.int64] = field(repr=False)
    adoption_rank: NDArray[np.int64] = field(repr=False)
    demand: NDArray[np.int64] = field(repr=False)

    @property
    def size(self) -> int:
        """Households in this shard."""
        return int(self.household_ids.shape[0])


@dataclass
class ShardState:
    """Per-household dynamic state the legs update in place."""

    #: Bytes requested but not yet delivered.
    backlog: NDArray[np.int64]
    #: Daily onload cap already consumed.
    cap_used: NDArray[np.int64]
    #: Pending round: ADSL bytes the household wants this round.
    pending_want: NDArray[np.int64]
    #: Pending round: 3G bytes offered for onload this round.
    pending_spill: NDArray[np.int64]
    #: Pending round: 3G bytes actually granted this round.
    pending_serve3g: NDArray[np.int64]
    #: Day accumulators (integer bytes / byte-rounds).
    served_adsl: NDArray[np.int64]
    served_3g: NDArray[np.int64]
    waste: NDArray[np.int64]
    backlog_integral: NDArray[np.int64]
    #: Households whose cap ran dry at some round this day.
    cap_exhausted: NDArray[np.bool_]


@dataclass(frozen=True)
class Offers:
    """Leg-1 aggregates a shard sends the dispatcher (integer bytes)."""

    shard: int
    #: Per-DSLAM ADSL demand before onload relief (full-length array).
    dslam_want: NDArray[np.int64] = field(repr=False)
    #: Per-sector offered spill bytes.
    sector_spill: NDArray[np.int64] = field(repr=False)
    #: Per-sector requesting-household counts (permit-server load).
    sector_requests: NDArray[np.int64] = field(repr=False)


@dataclass(frozen=True)
class OnloadVerdict:
    """Leg-2 input: the dispatcher's global onload decision for a round."""

    #: False for the adsl-only baseline: no 3G leg at all.
    enabled: bool
    #: Per-sector: permit granted this round (always True for
    #: multi-provider — there is no network gate to deny).
    sector_granted: NDArray[np.bool_] = field(repr=False)
    #: Per-sector free-capacity pool, integer bytes.
    sector_pool: NDArray[np.int64] = field(repr=False)
    #: Per-sector global offered spill (the proportional-share divisor).
    sector_spill_total: NDArray[np.int64] = field(repr=False)


@dataclass(frozen=True)
class OnloadResult:
    """Leg-2 aggregates: relieved DSLAM demand plus sector service."""

    shard: int
    #: Per-DSLAM ADSL demand after onload relief (the real divisor).
    dslam_want: NDArray[np.int64] = field(repr=False)
    #: Per-sector 3G bytes served to this shard's households.
    sector_served: NDArray[np.int64] = field(repr=False)
    #: Households whose cap ran dry this round.
    cap_exhaustions: int = 0


@dataclass(frozen=True)
class AdslVerdict:
    """Leg-3 input: global per-DSLAM relieved demand totals."""

    dslam_want_total: NDArray[np.int64] = field(repr=False)


@dataclass(frozen=True)
class RoundAggregates:
    """Leg-3 output: one shard's integer round totals for the merge."""

    shard: int
    arrivals_bytes: int
    adsl_bytes: int
    onload_bytes: int
    waste_bytes: int
    backlog_bytes: int


@dataclass(frozen=True)
class ShardFinal:
    """End-of-day per-household accumulators, keyed by household id."""

    shard: int
    household_ids: NDArray[np.int64] = field(repr=False)
    served_adsl: NDArray[np.int64] = field(repr=False)
    served_3g: NDArray[np.int64] = field(repr=False)
    waste: NDArray[np.int64] = field(repr=False)
    backlog_integral: NDArray[np.int64] = field(repr=False)
    backlog: NDArray[np.int64] = field(repr=False)
    cap_used: NDArray[np.int64] = field(repr=False)
    cap_exhausted: NDArray[np.bool_] = field(repr=False)


#: Per-process caches: the full city per parameter set, and the slice
#: per (parameter set, partition, shard). A city day runs ``run_policy``
#: once per policy (ext-fleet five times per ramp) over the same
#: parameters, so only the first run pays for sampling and slicing.
_POPULATION_CACHE: Dict[FleetParameters, Population] = {}
_SHARD_CACHE: Dict[Tuple[FleetParameters, int, int], ShardPopulation] = {}


def _population(params: FleetParameters) -> Population:
    cached = _POPULATION_CACHE.get(params)
    if cached is None:
        cached = sample_population(params)
        _POPULATION_CACHE.clear()  # one city per process is plenty
        _POPULATION_CACHE[params] = cached
    return cached


def shard_population(
    params: FleetParameters, n_shards: int, shard: int
) -> ShardPopulation:
    """This shard's population slice (process-cached, seed-derived)."""
    key = (params, n_shards, shard)
    cached = _SHARD_CACHE.get(key)
    if cached is not None:
        return cached
    population = _population(params)
    mask = (population.sector_of % n_shards) == shard
    ids = np.flatnonzero(mask).astype(np.int64)
    sliced = ShardPopulation(
        params=params,
        shard=shard,
        n_shards=n_shards,
        household_ids=ids,
        dslam_of=population.dslam_of[ids],
        sector_of=population.sector_of[ids],
        adoption_rank=population.adoption_rank[ids],
        demand=population.demand[ids],
    )
    if len(_SHARD_CACHE) > 64:
        _SHARD_CACHE.clear()
    _SHARD_CACHE[key] = sliced
    return sliced


def _int_sums(
    index: NDArray[np.int64], values: NDArray[np.int64], size: int
) -> NDArray[np.int64]:
    """Exact int64 scatter-add of ``values`` grouped by ``index``.

    ``np.bincount`` with weights would sum in float64; this stays in
    integer arithmetic so merged totals are exact at any partitioning.
    """
    out = np.zeros(size, dtype=np.int64)
    np.add.at(out, index, values)
    return out


def initial_state(pop: ShardPopulation) -> ShardState:
    """Fresh day-start state for ``pop``."""
    n = pop.size

    def zeros() -> NDArray[np.int64]:
        return np.zeros(n, dtype=np.int64)

    return ShardState(
        backlog=zeros(),
        cap_used=zeros(),
        pending_want=zeros(),
        pending_spill=zeros(),
        pending_serve3g=zeros(),
        served_adsl=zeros(),
        served_3g=zeros(),
        waste=zeros(),
        backlog_integral=zeros(),
        cap_exhausted=np.zeros(n, dtype=np.bool_),
    )


def offer(
    pop: ShardPopulation,
    state: ShardState,
    round_index: int,
    adoption: float,
    onload_enabled: bool,
    est_factor: NDArray[np.float64],
) -> Offers:
    """Leg 1: absorb arrivals and offer spill to the 3G leg.

    ``est_factor`` is the previous round's realized per-DSLAM
    allocation factor (global floats derived from integer totals): the
    household modem's only view of backhaul contention. Overestimating
    the contention onloads bytes the line could have carried — that
    shows up later as waste, not as an extra exchange iteration.
    """
    params = pop.params
    state.backlog = state.backlog + pop.demand[:, round_index]
    line = params.line_round_bytes
    state.pending_want = np.minimum(state.backlog, line)

    if onload_enabled:
        est_adsl = (line * est_factor[pop.dslam_of]).astype(np.int64)
        adopter = pop.adoption_rank < int(
            round(params.n_households * adoption)
        )
        cap_left = np.maximum(
            params.daily_cap_bytes - state.cap_used, 0
        )
        spill = np.minimum(
            np.maximum(state.backlog - est_adsl, 0),
            np.minimum(params.home_round_bytes, cap_left),
        )
        state.pending_spill = np.where(adopter, spill, 0)
    else:
        state.pending_spill = np.zeros(pop.size, dtype=np.int64)

    n_sectors = params.n_sectors
    sector_spill = _int_sums(pop.sector_of, state.pending_spill, n_sectors)
    requesting = (state.pending_spill > 0).astype(np.int64)
    sector_requests = _int_sums(pop.sector_of, requesting, n_sectors)
    dslam_want = _int_sums(
        pop.dslam_of, state.pending_want, params.n_dslams
    )
    return Offers(
        shard=pop.shard,
        dslam_want=dslam_want,
        sector_spill=sector_spill,
        sector_requests=sector_requests,
    )


def settle_onload(
    pop: ShardPopulation,
    state: ShardState,
    verdict: OnloadVerdict,
) -> OnloadResult:
    """Leg 2: apply the onload verdict, meter caps, relieve DSLAM demand."""
    params = pop.params
    cap_exhaustions = 0
    if verdict.enabled and pop.size > 0:
        sector = pop.sector_of
        granted = verdict.sector_granted[sector]
        pool = verdict.sector_pool[sector]
        total = np.maximum(verdict.sector_spill_total[sector], 1)
        spill = state.pending_spill
        # Proportional share of the sector's free pool, floor-rounded:
        # integer arithmetic, so the share depends only on (own spill,
        # global totals) — partition invariant by construction.
        share = np.where(
            verdict.sector_spill_total[sector] <= pool,
            spill,
            spill * pool // total,
        )
        serve3g = np.where(granted, np.minimum(spill, share), 0)
        state.pending_serve3g = serve3g.astype(np.int64)
        before_left = params.daily_cap_bytes - state.cap_used
        state.cap_used = state.cap_used + state.pending_serve3g
        now_left = params.daily_cap_bytes - state.cap_used
        newly_dry = (before_left > 0) & (now_left <= 0)
        cap_exhaustions = int(np.count_nonzero(newly_dry))
        state.cap_exhausted = state.cap_exhausted | newly_dry
    else:
        state.pending_serve3g = np.zeros(pop.size, dtype=np.int64)

    # The DSLAM only carries what the 3G leg did not: relieved demand.
    relieved = np.minimum(
        state.pending_want,
        np.maximum(state.backlog - state.pending_serve3g, 0),
    )
    state.pending_want = relieved
    dslam_want = _int_sums(pop.dslam_of, relieved, params.n_dslams)
    sector_served = _int_sums(
        pop.sector_of, state.pending_serve3g, params.n_sectors
    )
    return OnloadResult(
        shard=pop.shard,
        dslam_want=dslam_want,
        sector_served=sector_served,
        cap_exhaustions=cap_exhaustions,
    )


def finish_round(
    pop: ShardPopulation,
    state: ShardState,
    round_index: int,
    verdict: AdslVerdict,
) -> RoundAggregates:
    """Leg 3: allocate the DSLAM backhaul, drain backlogs, count waste."""
    params = pop.params
    arrivals = int(pop.demand[:, round_index].sum())
    if pop.size == 0:
        return RoundAggregates(
            shard=pop.shard,
            arrivals_bytes=arrivals,
            adsl_bytes=0,
            onload_bytes=0,
            waste_bytes=0,
            backlog_bytes=0,
        )
    want = state.pending_want
    total = np.maximum(verdict.dslam_want_total[pop.dslam_of], 1)
    capacity = params.dslam_round_bytes
    adsl = np.where(
        verdict.dslam_want_total[pop.dslam_of] <= capacity,
        want,
        want * capacity // total,
    ).astype(np.int64)
    serve3g = state.pending_serve3g

    delivered = np.minimum(state.backlog, adsl + serve3g)
    state.backlog = state.backlog - delivered

    # Waste: onloaded bytes whose ADSL line share went unused. The line
    # share actually available was min(line, what the DSLAM factor
    # would have granted the full want) — conservatively approximated
    # by the granted adsl plus the headroom up to the line rate when
    # the DSLAM was uncongested.
    line = params.line_round_bytes
    uncongested = verdict.dslam_want_total[pop.dslam_of] <= capacity
    line_available = np.where(
        uncongested, np.minimum(state.backlog + delivered, line), adsl
    )
    unused_line = np.maximum(line_available - adsl, 0)
    waste = np.minimum(serve3g, unused_line).astype(np.int64)

    state.served_adsl = state.served_adsl + adsl
    state.served_3g = state.served_3g + serve3g
    state.waste = state.waste + waste
    state.backlog_integral = state.backlog_integral + state.backlog

    return RoundAggregates(
        shard=pop.shard,
        arrivals_bytes=arrivals,
        adsl_bytes=int(adsl.sum()),
        onload_bytes=int(serve3g.sum()),
        waste_bytes=int(waste.sum()),
        backlog_bytes=int(state.backlog.sum()),
    )


def shard_final(pop: ShardPopulation, state: ShardState) -> ShardFinal:
    """End-of-day accumulators, keyed by global household id."""
    return ShardFinal(
        shard=pop.shard,
        household_ids=pop.household_ids,
        served_adsl=state.served_adsl,
        served_3g=state.served_3g,
        waste=state.waste,
        backlog_integral=state.backlog_integral,
        backlog=state.backlog,
        cap_used=state.cap_used,
        cap_exhausted=state.cap_exhausted,
    )
