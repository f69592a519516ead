"""Max-min fair fluid flow simulator on an incremental discrete-event engine.

TCP transfers are modelled as *fluid flows*: a flow has a remaining volume
and crosses a series chain of links; at any instant the set of active flows
is allocated rates by progressive filling (max-min fairness), which is the
standard flow-level abstraction of long-lived TCP sharing a bottleneck. The
simulator advances in variable-size steps bounded by the next of: a flow
completion, a link capacity change, or a scheduled timer event (deferred
flow start, radio promotion, …).

Since the engine refactor the boundary sources live in
:class:`repro.netsim.engine.SimulationEngine` (timers + an incremental
link-change index + the flow-ETA source installed here), per-flow state
(remaining volume, current rate) lives in numpy arrays keyed by a stable
slot index, and link membership for the allocator is maintained
incrementally as flows start and finish instead of being rebuilt from
scratch every step.

Determinism contract (load-bearing — see docs/ARCHITECTURE.md): every
refactored path must produce *bit-identical* floats to the original
rescan-everything stepper, because experiment traces are diffed against
golden digests. Concretely:

* the step **boundary sequence is pinned**: rates depend on the exact
  query time (diurnal modulation is continuous in ``t``), so rate
  allocation is re-run at every step, exactly like the original — the
  refactor makes each recompute cheap (cached stochastic factors,
  incremental membership), it does not skip recomputes;
* flow ETAs are re-derived whenever a flow's rate changed or bytes moved
  (an unchanged ETA would differ by ulps from a re-derived one, shifting
  completion times), and the derivation arithmetic is unchanged;
* the vectorized array paths use the same IEEE-754 double operations in
  the same order as the scalar loops they replace (elementwise multiply/
  divide/min, and ``np.add.at`` for in-order link byte accumulation), so
  both paths are bit-equal — property-tested in
  ``tests/test_netsim_fluid.py``.

This is the substrate every 3GOL experiment runs on: the multipath
scheduler submits items as flows over paths, reacts to completion callbacks
and aborts duplicate flows, exactly mirroring the prototype's behaviour at
the granularity the paper's evaluation reports (seconds).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.netsim.engine import ScheduledEvent, SimulationEngine
from repro.netsim.link import Link, validate_chain
from repro.util.units import bits_to_bytes, bytes_to_bits
from repro.util.validate import check_non_negative

#: Residual volume (bytes) below which a flow counts as complete. The
#: threshold is relative to the flow size (see :func:`completion_epsilon`)
#: because the float error left after stepping exactly to a completion
#: boundary scales with the volume transferred; the absolute floor covers
#: tiny flows.
COMPLETION_EPSILON = 1e-3
_COMPLETION_RELATIVE = 1e-9


def completion_epsilon(size_bytes: float) -> float:
    """Residual volume below which a flow of ``size_bytes`` is complete."""
    return max(COMPLETION_EPSILON, _COMPLETION_RELATIVE * size_bytes)


#: Relative tolerance when comparing fair shares in the water-filling loop.
_SHARE_EPSILON = 1e-12

#: Active-flow count from which the stepper switches from the scalar
#: per-flow loops to the vectorized numpy paths. Both paths are
#: bit-identical; the threshold only picks whichever has less overhead.
VECTOR_MIN_FLOWS = 8

#: Active-flow count from which the water-filling allocator switches to
#: its vectorized rounds (higher than :data:`VECTOR_MIN_FLOWS` because a
#: round has more numpy fixed cost than an advance).
VECTOR_MIN_ALLOC_FLOWS = 32

#: Initial slot-array capacity; arrays double when full.
_INITIAL_SLOTS = 16


class Flow:
    """A fluid flow: ``size_bytes`` to move across a chain of links.

    ``rate_cap_bps`` optionally caps the flow's own rate regardless of link
    shares (used for per-device channel category limits).
    ``on_complete(flow, time)`` fires when the last byte is delivered;
    ``on_abort(flow, time)`` fires if the flow is cancelled first.

    While a flow is active its remaining volume lives in the owning
    network's slot arrays (:attr:`remaining_bytes` reads through); before
    activation and after completion/abort the value is held locally.
    """

    _ids = itertools.count(1)

    @classmethod
    def _reset_ids(cls) -> None:
        """Restart the id stream (per-experiment isolation; see runner)."""
        cls._ids = itertools.count(1)

    def __init__(
        self,
        size_bytes: float,
        links: Sequence[Link],
        rate_cap_bps: Optional[float] = None,
        on_complete: Optional[Callable[["Flow", float], None]] = None,
        on_abort: Optional[Callable[["Flow", float], None]] = None,
        label: str = "",
    ) -> None:
        self.flow_id = next(Flow._ids)
        self.size_bytes = check_non_negative("size_bytes", size_bytes)
        self.links = validate_chain(links)
        if rate_cap_bps is not None:
            rate_cap_bps = check_non_negative("rate_cap_bps", rate_cap_bps)
        self.rate_cap_bps = rate_cap_bps
        self.on_complete = on_complete
        self.on_abort = on_abort
        self.label = label or f"flow-{self.flow_id}"

        self._remaining = self.size_bytes
        self.current_rate_bps = 0.0
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.aborted_at: Optional[float] = None

        #: Completion threshold, precomputed once (hot path).
        self._eps = completion_epsilon(self.size_bytes)
        #: Chain links deduplicated in first-seen order: a link appearing
        #: twice in a chain still counts its flow *once* for fair shares
        #: (set semantics of the reference allocator).
        self._alloc_links: Tuple[Link, ...] = tuple(
            dict.fromkeys(self.links)
        )
        #: Owning network and slot while active; ``None``/-1 otherwise.
        self._net: Optional["FluidNetwork"] = None
        self._slot = -1
        #: Byte-accounting rows (per chain occurrence, duplicates kept).
        self._link_rows: List[int] = []
        #: Allocator link-use handles while registered (deduplicated for
        #: fair-share membership, full chain for capacity subtraction).
        self._alloc_uses: List["_LinkUse"] = []
        self._sub_uses: List["_LinkUse"] = []
        #: Cached numpy views of the same indices, built once per
        #: registration so cache rebuilds concatenate instead of looping.
        self._a_cols_arr: NDArray[np.intp] = np.zeros(0, dtype=np.intp)
        self._s_cols_arr: NDArray[np.intp] = np.zeros(0, dtype=np.intp)
        self._rows_arr: NDArray[np.intp] = np.zeros(0, dtype=np.intp)

    @property
    def remaining_bytes(self) -> float:
        """Bytes still to transfer (reads the network slot when active)."""
        net = self._net
        if net is not None:
            return float(net._arr_remaining[self._slot])
        return self._remaining

    @remaining_bytes.setter
    def remaining_bytes(self, value: float) -> None:
        net = self._net
        if net is not None:
            net._arr_remaining[self._slot] = value
        else:
            self._remaining = value

    @property
    def transferred_bytes(self) -> float:
        """Bytes delivered so far (counts partial progress of aborts)."""
        return self.size_bytes - self.remaining_bytes

    @property
    def is_done(self) -> bool:
        """True once completed or aborted."""
        return self.completed_at is not None or self.aborted_at is not None

    def __repr__(self) -> str:
        return (
            f"Flow({self.label!r}, size={self.size_bytes:.0f}B, "
            f"remaining={self.remaining_bytes:.0f}B)"
        )


def max_min_allocation(  # repro-lint: disable=RL014  # a: oracle
    flows: Sequence[Flow], time: float
) -> Dict[Flow, float]:
    """Progressive-filling (water-filling) max-min fair rate allocation.

    Per-flow rate caps are honoured by treating each cap as a virtual
    single-flow link. Links with zero capacity freeze their flows at rate
    zero (the flows stay active but make no progress).

    This is the *brute-force reference*: it rebuilds link membership from
    scratch on every call. The stepper uses the incremental allocator in
    :meth:`FluidNetwork._recompute_rates`, which maintains membership as
    flows start and finish but runs the same water-filling arithmetic —
    property tests assert the two agree exactly on randomized topologies.
    """
    rates: Dict[Flow, float] = {}
    active = [flow for flow in flows]
    remaining_capacity: Dict[Link, float] = {}
    link_members: Dict[Link, set] = {}
    for flow in active:
        for link in flow.links:
            if link not in remaining_capacity:
                remaining_capacity[link] = link.capacity_at(time)
                link_members[link] = set()
            link_members[link].add(flow)

    active_set = set(active)
    while active_set:
        # Fair share offered by each constraint still in play.
        bottleneck_share = math.inf
        for link, members in link_members.items():
            live = members & active_set
            if not live:
                continue
            share = remaining_capacity[link] / len(live)
            bottleneck_share = min(bottleneck_share, share)
        for flow in active_set:
            if flow.rate_cap_bps is not None:
                bottleneck_share = min(bottleneck_share, flow.rate_cap_bps)
        if bottleneck_share is math.inf:
            # No constraining link at all; should not happen because chains
            # are non-empty, but guard against an all-frozen corner.
            for flow in active_set:
                rates[flow] = 0.0
            break

        # Freeze every flow pinned at the bottleneck share: flows whose own
        # cap equals it, plus all flows on saturated links.
        frozen = set()
        for flow in active_set:
            cap = flow.rate_cap_bps
            if cap is not None and cap <= bottleneck_share * (1 + _SHARE_EPSILON):
                frozen.add(flow)
        for link, members in link_members.items():
            live = members & active_set
            if not live:
                continue
            share = remaining_capacity[link] / len(live)
            if share <= bottleneck_share * (1 + _SHARE_EPSILON) or (
                share == 0.0 and bottleneck_share == 0.0
            ):
                frozen.update(live)
        if not frozen:
            # Numerical corner: freeze everything at the share to guarantee
            # termination.
            frozen = set(active_set)

        # Deterministic order (flow id) so capacity subtraction is a pure
        # function of the inputs, not of set iteration order.
        for flow in sorted(frozen, key=lambda f: f.flow_id):
            rate = bottleneck_share
            if flow.rate_cap_bps is not None:
                rate = min(rate, flow.rate_cap_bps)
            rates[flow] = max(rate, 0.0)
            for link in flow.links:
                remaining_capacity[link] = max(
                    0.0, remaining_capacity[link] - rates[flow]
                )
        active_set -= frozen
    return rates


class _LinkUse:
    """Allocator-side state of one link while flows cross it."""

    __slots__ = ("link", "members", "scratch", "col")

    def __init__(self, link: Link) -> None:
        self.link = link
        #: Active flows crossing the link (each at most once), in
        #: activation order.
        self.members: List[Flow] = []
        #: Per-recompute scratch index (column in the local arrays).
        self.scratch = -1
        #: Persistent column id in the network's column space, stable for
        #: the lifetime of the use (assigned at creation, recycled when
        #: the last member leaves). The vector allocator indexes by it.
        self.col = -1


class FluidNetwork:
    """The simulation loop: flows, timers, and stepped fluid transfer.

    The network owns a :class:`~repro.netsim.engine.SimulationEngine` (the
    clock plus the unified boundary sources) and the vectorized per-flow
    state arrays. The original scan-everything API (:meth:`step`,
    :meth:`run`, :meth:`advance_to`, :meth:`schedule`) is unchanged.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.engine = SimulationEngine(start_time)
        self._flows: List[Flow] = []
        self._rates_dirty = True

        # Slot arrays: remaining volume and current rate per active flow.
        self._arr_remaining: NDArray[np.float64] = np.zeros(_INITIAL_SLOTS)
        self._arr_rate: NDArray[np.float64] = np.zeros(_INITIAL_SLOTS)
        self._arr_eps: NDArray[np.float64] = np.zeros(_INITIAL_SLOTS)
        self._free_slots: List[int] = list(range(_INITIAL_SLOTS - 1, -1, -1))

        # Byte accounting, keyed by link *name* (two link objects sharing
        # a name share a row, as the original dict accounting did).
        self._link_row: Dict[str, int] = {}
        self._link_names: List[str] = []
        self._link_totals: NDArray[np.float64] = np.zeros(_INITIAL_SLOTS)

        # Incremental allocator membership, keyed by link object. Each
        # use owns a persistent column in ``_col_live`` (live member
        # counts, maintained on register/unregister); columns are
        # recycled through ``_free_cols`` when a use dies.
        self._uses: Dict[int, _LinkUse] = {}
        self._col_live: NDArray[np.int64] = np.zeros(
            _INITIAL_SLOTS, dtype=np.int64
        )
        self._free_cols: List[int] = list(range(_INITIAL_SLOTS - 1, -1, -1))

        # Flow-major flattened index caches for the vectorized paths;
        # rebuilt lazily whenever membership changes.
        self._flat_dirty = True
        self._flat_slots: NDArray[np.intp] = np.zeros(0, dtype=np.intp)
        self._flat_rows: NDArray[np.intp] = np.zeros(0, dtype=np.intp)
        self._flat_flow_pos: NDArray[np.intp] = np.zeros(0, dtype=np.intp)

        # Allocator setup cache (use list, column indices, live counts,
        # caps): a pure function of membership, rebuilt only when a flow
        # starts or finishes, not on every rate recompute. ``_alloc_vector``
        # selects which recompute path the cache was built for.
        self._alloc_dirty = True
        self._alloc_vector = False
        self._alloc_uses_cache: List[_LinkUse] = []
        self._alloc_base_live: List[int] = []
        self._alloc_cols_cache: List[List[int]] = []
        self._sub_cols_cache: List[List[int]] = []
        self._alloc_caps_cache: List[Optional[float]] = []
        self._alloc_pos_cache: Dict[int, int] = {}
        # Vector-mode caches (flow-major flattened membership pairs).
        self._valloc_caps: NDArray[np.float64] = np.zeros(0)
        self._valloc_use_cols: NDArray[np.intp] = np.zeros(0, dtype=np.intp)
        self._valloc_links: List[Link] = []
        self._valloc_a_cols: NDArray[np.intp] = np.zeros(0, dtype=np.intp)
        self._valloc_a_pos: NDArray[np.intp] = np.zeros(0, dtype=np.intp)
        self._valloc_s_cols: NDArray[np.intp] = np.zeros(0, dtype=np.intp)
        self._valloc_s_pos: NDArray[np.intp] = np.zeros(0, dtype=np.intp)
        self._valloc_slots: NDArray[np.intp] = np.zeros(0, dtype=np.intp)

        self.engine.set_eta_source(self._earliest_eta)

    # ------------------------------------------------------------------
    # Clock and public accounting views
    # ------------------------------------------------------------------
    @property
    def time(self) -> float:
        """Current simulation time (the engine clock)."""
        return self.engine.time

    @time.setter
    def time(self, value: float) -> None:
        self.engine.time = value

    @property
    def link_bytes(self) -> Dict[str, float]:
        """Total bytes moved, per link name, for load accounting."""
        totals = self._link_totals
        return {
            name: float(totals[row])
            for name, row in self._link_row.items()
        }

    # ------------------------------------------------------------------
    # Flow and timer management
    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> Tuple[Flow, ...]:
        """Flows currently transferring."""
        return tuple(self._flows)

    def add_flow(self, flow: Flow, delay: float = 0.0) -> Flow:
        """Activate ``flow`` now, or after ``delay`` seconds.

        The delay models everything that happens before TCP bytes move:
        HTTP request RTTs, radio channel acquisition, proxy hops.
        """
        delay = check_non_negative("delay", delay)
        if flow.is_done:
            raise ValueError(f"cannot add finished flow {flow!r}")
        if delay > 0.0:
            self.engine.schedule_at(
                self.engine.time + delay,
                lambda: self._activate(flow),
                label=f"start:{flow.label}",
            )
        else:
            self._activate(flow)
        return flow

    def _alloc_slot(self) -> int:
        if not self._free_slots:
            old = len(self._arr_remaining)
            grown = old * 2
            for name in ("_arr_remaining", "_arr_rate", "_arr_eps"):
                arr = np.zeros(grown)
                arr[:old] = getattr(self, name)
                setattr(self, name, arr)
            self._free_slots = list(range(grown - 1, old - 1, -1))
        return self._free_slots.pop()

    def _alloc_col(self) -> int:
        if not self._free_cols:
            old = len(self._col_live)
            grown = np.zeros(old * 2, dtype=np.int64)
            grown[:old] = self._col_live
            self._col_live = grown
            self._free_cols = list(range(old * 2 - 1, old - 1, -1))
        return self._free_cols.pop()

    def _row_for(self, name: str) -> int:
        row = self._link_row.get(name)
        if row is None:
            row = len(self._link_names)
            if row >= len(self._link_totals):
                grown = np.zeros(len(self._link_totals) * 2)
                grown[: len(self._link_totals)] = self._link_totals
                self._link_totals = grown
            self._link_row[name] = row
            self._link_names.append(name)
        return row

    def _register(self, flow: Flow) -> None:
        """Move the flow's state into the slot arrays and index its links."""
        slot = self._alloc_slot()
        self._arr_remaining[slot] = flow._remaining
        self._arr_rate[slot] = 0.0
        self._arr_eps[slot] = flow._eps
        flow._slot = slot
        flow._net = self
        flow._link_rows = [self._row_for(link.name) for link in flow.links]
        now = self.engine.time
        for link in flow._alloc_links:
            use = self._uses.get(id(link))
            if use is None:
                use = _LinkUse(link)
                use.col = self._alloc_col()
                self._uses[id(link)] = use
            use.members.append(flow)
            self._col_live[use.col] += 1
            self.engine.links.acquire(link, now)
        flow._alloc_uses = [self._uses[id(link)] for link in flow._alloc_links]
        flow._sub_uses = [self._uses[id(link)] for link in flow.links]
        flow._a_cols_arr = np.array(
            [use.col for use in flow._alloc_uses], dtype=np.intp
        )
        flow._s_cols_arr = np.array(
            [use.col for use in flow._sub_uses], dtype=np.intp
        )
        flow._rows_arr = np.array(flow._link_rows, dtype=np.intp)

    def _unregister(self, flow: Flow) -> None:
        """Copy slot state back into the flow and release its links."""
        net = flow._net
        if net is not self:
            return
        flow._remaining = float(self._arr_remaining[flow._slot])
        flow._net = None
        self._free_slots.append(flow._slot)
        flow._slot = -1
        flow._alloc_uses = []
        flow._sub_uses = []
        for link in flow._alloc_links:
            use = self._uses[id(link)]
            use.members.remove(flow)
            self._col_live[use.col] -= 1
            if not use.members:
                del self._uses[id(link)]
                self._free_cols.append(use.col)
            self.engine.links.release(link)

    def _activate(self, flow: Flow) -> None:
        if flow.is_done:
            return  # aborted while waiting to start
        flow.started_at = self.engine.time
        if flow._remaining <= flow._eps:
            # Zero-byte flow: complete instantly, still via the callback
            # path so schedulers see a uniform event sequence.
            self._finish(flow)
            return
        self._register(flow)
        self._flows.append(flow)
        self._rates_dirty = True
        self._flat_dirty = True
        self._alloc_dirty = True

    def abort_flow(self, flow: Flow) -> None:
        """Cancel a flow; partial progress is kept in ``transferred_bytes``."""
        if flow.is_done:
            return
        flow.aborted_at = self.engine.time
        flow.current_rate_bps = 0.0
        if flow in self._flows:
            self._flows.remove(flow)
            self._unregister(flow)
        self._rates_dirty = True
        self._flat_dirty = True
        self._alloc_dirty = True
        if flow.on_abort is not None:
            flow.on_abort(flow, self.engine.time)

    def schedule(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Run ``callback`` after ``delay`` seconds of simulated time."""
        delay = check_non_negative("delay", delay)
        return self.engine.schedule_at(
            self.engine.time + delay, callback, label=label
        )

    def _finish(self, flow: Flow) -> None:
        if flow.is_done:
            # A completion callback earlier in the same sweep may have
            # aborted this flow (losing duplicate); do not also complete it.
            return
        flow.completed_at = self.engine.time
        flow.current_rate_bps = 0.0
        if flow in self._flows:
            self._flows.remove(flow)
            self._unregister(flow)
        flow._remaining = 0.0
        self._rates_dirty = True
        self._flat_dirty = True
        self._alloc_dirty = True
        if flow.on_complete is not None:
            flow.on_complete(flow, self.engine.time)

    # ------------------------------------------------------------------
    # Rate allocation (incremental-membership water-filling)
    # ------------------------------------------------------------------
    def _recompute_rates(self) -> None:
        """Re-run max-min water-filling over the active flows.

        Membership (which flows cross which links) is maintained
        incrementally by :meth:`_register`/:meth:`_unregister`; only the
        water-filling arithmetic runs here, bit-identical to
        :func:`max_min_allocation` (see the property tests).
        """
        flows = self._flows
        self._rates_dirty = False
        if not flows:
            return
        now = self.engine.time

        if self._alloc_dirty:
            self._rebuild_alloc_caches()
        if self._alloc_vector:
            self._recompute_rates_vector(now)
            return
        uses = self._alloc_uses_cache
        n_links = len(uses)
        rem_cap = [use.link.capacity_at(now) for use in uses]
        live = self._alloc_base_live.copy()
        alloc_cols = self._alloc_cols_cache
        sub_cols = self._sub_cols_cache
        caps = self._alloc_caps_cache
        pos_of = self._alloc_pos_cache

        n = len(flows)
        rates = [0.0] * n
        is_active = [True] * n
        n_active = n

        while n_active:
            bottleneck = math.inf
            for j in range(n_links):
                count = live[j]
                if count:
                    share = rem_cap[j] / count
                    if share < bottleneck:
                        bottleneck = share
            for i in range(n):
                if is_active[i]:
                    cap = caps[i]
                    if cap is not None and cap < bottleneck:
                        bottleneck = cap
            if math.isinf(bottleneck):
                # No constraining link at all (all-frozen corner): active
                # flows stay at rate zero.
                break

            threshold = bottleneck * (1 + _SHARE_EPSILON)
            frozen: List[int] = []
            frozen_mark = [False] * n
            for i in range(n):
                if is_active[i]:
                    cap = caps[i]
                    if cap is not None and cap <= threshold:
                        frozen_mark[i] = True
            for j in range(n_links):
                count = live[j]
                if not count:
                    continue
                share = rem_cap[j] / count
                if share <= threshold or (
                    share == 0.0 and bottleneck == 0.0
                ):
                    for member in uses[j].members:
                        pos = pos_of[id(member)]
                        if is_active[pos]:
                            frozen_mark[pos] = True
            frozen = [i for i in range(n) if frozen_mark[i] and is_active[i]]
            if not frozen:
                # Numerical corner: freeze everything at the share to
                # guarantee termination.
                frozen = [i for i in range(n) if is_active[i]]

            for i in frozen:
                rate = bottleneck
                cap = caps[i]
                if cap is not None and cap < rate:
                    rate = cap
                rate = max(rate, 0.0)
                rates[i] = rate
                for j in alloc_cols[i]:
                    live[j] -= 1
                for j in sub_cols[i]:
                    reduced = rem_cap[j] - rate
                    rem_cap[j] = reduced if reduced > 0.0 else 0.0
                is_active[i] = False
            n_active -= len(frozen)

        arr_rate = self._arr_rate
        for i, flow in enumerate(flows):
            rate = rates[i]
            flow.current_rate_bps = rate
            arr_rate[flow._slot] = rate

    def _rebuild_alloc_caches(self) -> None:
        """Rebuild the allocator setup after a membership change.

        Builds either the scalar caches (list-of-columns per flow) or the
        vector caches (flattened membership pairs), chosen by flow count.
        Any membership change re-dirties the setup, so the chosen mode is
        always consistent with the current flow count.
        """
        flows = self._flows
        uses = list(self._uses.values())
        self._alloc_uses_cache = uses
        self._alloc_vector = len(flows) >= VECTOR_MIN_ALLOC_FLOWS
        if self._alloc_vector:
            # Per-flow column arrays were cached at registration against
            # persistent column ids, so the flattened pair arrays are a
            # concatenate + repeat, not a Python loop over every pair.
            n = len(flows)
            positions = np.arange(n, dtype=np.intp)
            lens_a = np.fromiter(
                (len(f._a_cols_arr) for f in flows), np.intp, count=n
            )
            lens_s = np.fromiter(
                (len(f._s_cols_arr) for f in flows), np.intp, count=n
            )
            self._valloc_a_cols = np.concatenate(
                [f._a_cols_arr for f in flows]
            )
            self._valloc_a_pos = np.repeat(positions, lens_a)
            self._valloc_s_cols = np.concatenate(
                [f._s_cols_arr for f in flows]
            )
            self._valloc_s_pos = np.repeat(positions, lens_s)
            self._valloc_caps = np.fromiter(
                (
                    math.inf if f.rate_cap_bps is None else f.rate_cap_bps
                    for f in flows
                ),
                np.float64,
                count=n,
            )
            self._valloc_slots = np.fromiter(
                (f._slot for f in flows), np.intp, count=n
            )
            self._valloc_use_cols = np.fromiter(
                (use.col for use in uses), np.intp, count=len(uses)
            )
            self._valloc_links = [use.link for use in uses]
        else:
            for j, use in enumerate(uses):
                use.scratch = j
            self._alloc_base_live = [len(use.members) for use in uses]
            # Per-flow link columns: deduplicated for live counts, full
            # chain (duplicates kept) for capacity subtraction — exactly
            # mirroring the reference's set-membership vs chain-iteration
            # split.
            self._alloc_cols_cache = [
                [use.scratch for use in f._alloc_uses] for f in flows
            ]
            self._sub_cols_cache = [
                [use.scratch for use in f._sub_uses] for f in flows
            ]
            self._alloc_caps_cache = [f.rate_cap_bps for f in flows]
            self._alloc_pos_cache = {
                id(flow): i for i, flow in enumerate(flows)
            }
        self._alloc_dirty = False

    def _recompute_rates_vector(self, now: float) -> None:
        """Vectorized water-filling rounds, bit-identical to the scalar path.

        Key fact making whole-round vectorization exact: every flow frozen
        in one round receives rate == the bottleneck share. A frozen flow's
        cap cannot be *below* the bottleneck (the bottleneck is the min
        over active caps), so ``min(bottleneck, cap)`` is the bottleneck
        for all of them, and ``max(·, 0)`` is the identity (capacities and
        caps are validated non-negative). Equal per-flow rates also mean
        the clamped capacity subtractions on a link are "subtract r, k
        times" regardless of flow order — replayed sequentially per link
        below, because ``(x-r)-r`` differs from ``x-2r`` in ulps. When a
        round freezes every surviving flow the subtractions feed no later
        round and are skipped entirely.
        """
        flows = self._flows
        live = self._col_live.copy()
        ncols = len(live)
        links = self._valloc_links
        rem_cap = np.zeros(ncols)
        rem_cap[self._valloc_use_cols] = np.fromiter(
            (link.capacity_at(now) for link in links),
            np.float64,
            count=len(links),
        )
        caps = self._valloc_caps
        a_cols = self._valloc_a_cols
        a_pos = self._valloc_a_pos
        s_cols = self._valloc_s_cols
        s_pos = self._valloc_s_pos

        n = len(flows)
        rates = np.zeros(n)
        active = np.ones(n, dtype=bool)
        n_active = n
        shares = np.empty(ncols)

        while n_active:
            shares.fill(math.inf)
            live_mask = live > 0
            np.divide(rem_cap, live, out=shares, where=live_mask)
            bottleneck = float(shares.min())
            cap_min = float(caps[active].min())
            if cap_min < bottleneck:
                bottleneck = cap_min
            if math.isinf(bottleneck):
                # No constraining link at all (all-frozen corner): active
                # flows stay at rate zero.
                break

            threshold = bottleneck * (1 + _SHARE_EPSILON)
            frozen = active & (caps <= threshold)
            link_frozen = live_mask & (shares <= threshold)
            if link_frozen.any():
                hit = np.zeros(n, dtype=bool)
                hit[a_pos[link_frozen[a_cols]]] = True
                frozen |= hit
                frozen &= active
            if not frozen.any():
                # Numerical corner: freeze everything at the share to
                # guarantee termination.
                frozen = active.copy()

            rate = bottleneck if bottleneck > 0.0 else 0.0
            rates[frozen] = rate
            k = int(frozen.sum())
            if k < n_active:
                np.subtract.at(live, a_cols[frozen[a_pos]], 1)
                frozen_sub_cols = s_cols[frozen[s_pos]]
                per_col = np.bincount(frozen_sub_cols)
                for j in np.nonzero(per_col)[0].tolist():
                    value = rem_cap[j]
                    for _ in range(int(per_col[j])):
                        reduced = value - rate
                        value = reduced if reduced > 0.0 else 0.0
                    rem_cap[j] = value
            active &= ~frozen
            n_active -= k

        self._arr_rate[self._valloc_slots] = rates
        rate_list = rates.tolist()
        for i, flow in enumerate(flows):
            flow.current_rate_bps = rate_list[i]

    # ------------------------------------------------------------------
    # Boundaries and stepping
    # ------------------------------------------------------------------
    def _earliest_eta(self) -> float:
        """Earliest completion among flows currently moving bytes."""
        flows = self._flows
        if not flows:
            return math.inf
        now = self.engine.time
        if len(flows) >= VECTOR_MIN_FLOWS:
            slots = self._flat()[0]
            rates = self._arr_rate[slots]
            moving = rates > 0.0
            if not moving.any():
                return math.inf
            remaining = self._arr_remaining[slots][moving]
            etas = now + bytes_to_bits(remaining) / rates[moving]
            return float(etas.min())
        best = math.inf
        arr_rate = self._arr_rate
        arr_remaining = self._arr_remaining
        for flow in flows:
            slot = flow._slot
            rate = arr_rate[slot]
            if rate > 0.0:
                eta = now + bytes_to_bits(float(arr_remaining[slot])) / float(
                    rate
                )
                if eta < best:
                    best = eta
        return best

    def _flat(
        self,
    ) -> Tuple[NDArray[np.intp], NDArray[np.intp], NDArray[np.intp]]:
        """Flow-major flattened (slots, link rows, flow positions)."""
        if self._flat_dirty:
            flows = self._flows
            n = len(flows)
            self._flat_slots = np.fromiter(
                (f._slot for f in flows), np.intp, count=n
            )
            if n:
                # Per-flow row arrays are cached at registration; the
                # flow-major, chain-order concatenation matches the old
                # extend loop element for element.
                lens = np.fromiter(
                    (len(f._rows_arr) for f in flows), np.intp, count=n
                )
                self._flat_rows = np.concatenate(
                    [f._rows_arr for f in flows]
                )
                self._flat_flow_pos = np.repeat(
                    np.arange(n, dtype=np.intp), lens
                )
            else:
                self._flat_rows = np.zeros(0, dtype=np.intp)
                self._flat_flow_pos = np.zeros(0, dtype=np.intp)
            self._flat_dirty = False
        return self._flat_slots, self._flat_rows, self._flat_flow_pos

    def _advance_transfer(self, until: float) -> None:
        now = self.engine.time
        dt = until - now
        if dt < 0.0:
            raise RuntimeError(f"time went backwards: {now} -> {until}")
        flows = self._flows
        if dt > 0.0 and flows:
            if len(flows) >= VECTOR_MIN_FLOWS:
                slots, rows, flow_pos = self._flat()
                rates = self._arr_rate[slots]
                remaining = self._arr_remaining[slots]
                moved = np.minimum(remaining, bits_to_bytes(rates * dt))
                self._arr_remaining[slots] = remaining - moved
                # In-order accumulation (flow-major, chain order within a
                # flow): np.add.at applies elementwise in index order, so
                # the float sums match the scalar loop bit for bit.
                np.add.at(self._link_totals, rows, moved[flow_pos])
            else:
                arr_rate = self._arr_rate
                arr_remaining = self._arr_remaining
                totals = self._link_totals
                for flow in flows:
                    slot = flow._slot
                    remaining_f = float(arr_remaining[slot])
                    moved_f = min(
                        remaining_f, bits_to_bytes(float(arr_rate[slot]) * dt)
                    )
                    arr_remaining[slot] = remaining_f - moved_f
                    for row in flow._link_rows:
                        totals[row] += moved_f
        self.engine.advance_clock(until)

    def _sweep_completions(self) -> None:
        """Finish every flow whose residual dropped below its epsilon.

        Completions run strictly before timers at the same instant: a
        scheduler reacting to a completion may cancel a timer.
        """
        flows = self._flows
        if not flows:
            return
        arr_remaining = self._arr_remaining
        arr_eps = self._arr_eps
        done: List[Flow] = []
        for flow in flows:
            slot = flow._slot
            if arr_remaining[slot] <= arr_eps[slot]:
                done.append(flow)
        if not done:
            return
        if len(done) > 1:
            done.sort(key=lambda f: f.flow_id)
        for flow in done:
            self._finish(flow)

    def step(self, max_time: float = math.inf) -> bool:
        """Advance to the next event (bounded by ``max_time``).

        Returns ``True`` if anything can still happen, ``False`` when the
        simulation has drained (no flows, no timers) — including when the
        clock stopped at ``max_time`` with nothing left to do.
        """
        if self._rates_dirty:
            self._recompute_rates()
        boundary = self.engine.next_boundary()
        if max_time < boundary:
            boundary = max_time
        if math.isinf(boundary):
            return False
        self._advance_transfer(boundary)
        self._sweep_completions()
        self.engine.run_due_timers()
        self._rates_dirty = True
        return bool(self._flows) or self.engine.has_timers()

    def advance_to(self, target_time: float) -> float:
        """Advance the clock to ``target_time``, processing whatever occurs.

        Unlike :meth:`run`, this also moves the clock across idle periods
        (no flows, no timers) — what a day-scale scenario needs between a
        household's transactions.
        """
        if target_time < self.engine.time:
            raise ValueError(
                f"cannot advance backwards: {self.engine.time} -> "
                f"{target_time}"
            )
        self.run(until=target_time)
        if self.engine.time < target_time:
            self.engine.advance_clock(target_time)
        return self.engine.time

    def run(self, until: float = math.inf, max_steps: int = 10_000_000) -> float:
        """Run until drained or ``until``; returns the final time.

        Unlike :meth:`step`, a drained network does not advance the clock
        to ``until`` here — :meth:`advance_to` handles idle-period skips.
        """
        engine = self.engine
        for _ in range(max_steps):
            if not self._flows and not engine.has_timers():
                break
            if engine.time >= until:
                break
            if self._rates_dirty:
                self._recompute_rates()
            boundary = engine.next_boundary()
            if until < boundary:
                boundary = until
            if math.isinf(boundary):
                break
            self._advance_transfer(boundary)
            self._sweep_completions()
            engine.run_due_timers()
            self._rates_dirty = True
        else:
            raise RuntimeError("simulation exceeded max_steps; runaway loop?")
        return self.engine.time
