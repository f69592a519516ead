"""Discrete-event engine core.

The fluid simulator (:mod:`repro.netsim.fluid`) interleaves two kinds of
progress: continuous flow transfer between events, and discrete events.
This module provides the discrete half, structured as three pieces:

* :class:`EventQueue` — a binary-heap timer queue with stable FIFO
  ordering for simultaneous events, O(1) live counting and automatic
  compaction when cancelled entries accumulate;
* :class:`LinkChangeTracker` — an incremental index of the *earliest
  upcoming capacity change* across the links currently carrying flows,
  so the stepper never rescans every link per step;
* :class:`SimulationEngine` — the clock owner. It unifies the three
  boundary sources of the simulation (scheduled timers, link capacity
  changes, and flow-completion ETAs supplied by the fluid layer) behind
  one :meth:`~SimulationEngine.next_boundary` query.

Determinism contract: every boundary the engine reports is *the same
float* the equivalent full rescan would produce — cached link-change
times are only reused while provably unexpired (see
:meth:`LinkChangeTracker.next_change`), so refactoring the scan into an
incremental index cannot shift event times by even one ulp.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Tuple


class SupportsNextChange(Protocol):
    """Anything with a ``next_change_after`` query (ducked by links)."""

    def next_change_after(self, time: float) -> float:
        """Earliest time strictly after ``time`` the object may change."""
        ...


#: Heap size below which :class:`EventQueue` never bothers compacting.
_COMPACT_MIN_HEAP = 16


@dataclass(order=True)
class ScheduledEvent:
    """A callback scheduled at an absolute simulation time.

    Ordering is by ``(time, sequence)`` so events scheduled earlier run
    first among equal timestamps; the callback itself never participates in
    comparisons.
    """

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)
    #: Owning queue while the event sits in its heap; ``None`` once
    #: popped (or never queued), so late cancels don't corrupt counters.
    _queue: Optional["EventQueue"] = field(
        default=None, compare=False, repr=False
    )

    def cancel(self) -> None:
        """Mark the event so the queue skips it when its time comes."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._note_cancel()


class EventQueue:
    """Binary-heap queue of :class:`ScheduledEvent` objects.

    Live events are counted incrementally (``len`` is O(1)); when more
    than half of a non-trivial heap is cancelled entries, the heap is
    compacted in one pass so cancelled timers cannot accumulate without
    bound (a transaction with a per-copy watchdog cancels thousands).
    """

    def __init__(self) -> None:
        self._heap: List[ScheduledEvent] = []
        self._counter = itertools.count()
        self._live = 0
        self._cancelled = 0

    def schedule(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Add ``callback`` to run at absolute ``time``; returns a handle.

        ``time`` must be finite — scheduling "at infinity" is always a bug
        in the caller (use "never schedule" instead).
        """
        if math.isnan(time) or math.isinf(time):
            raise ValueError(f"event time must be finite, got {time}")
        event = ScheduledEvent(
            time=float(time),
            sequence=next(self._counter),
            callback=callback,
            label=label,
        )
        event._queue = self
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def _note_cancel(self) -> None:
        """A queued event was cancelled: adjust counters, maybe compact."""
        self._live -= 1
        self._cancelled += 1
        if (
            len(self._heap) >= _COMPACT_MIN_HEAP
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify the survivors."""
        survivors = [event for event in self._heap if not event.cancelled]
        heapq.heapify(survivors)
        self._heap = survivors
        self._cancelled = 0

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
            self._cancelled -= 1

    def peek_time(self) -> float:
        """Time of the next live event, or ``inf`` when the queue is empty."""
        self._drop_cancelled()
        return self._heap[0].time if self._heap else math.inf

    def pop_due(self, now: float) -> Optional[ScheduledEvent]:
        """Pop the next live event if its time is <= ``now``; else ``None``."""
        self._drop_cancelled()
        if self._heap and self._heap[0].time <= now:
            event = heapq.heappop(self._heap)
            event._queue = None
            self._live -= 1
            return event
        return None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0


class LinkChangeTracker:
    """Earliest upcoming capacity change across the links in use.

    Links are refcounted by :meth:`acquire`/:meth:`release` as flows
    start and finish; each acquired link caches its next change time in
    a lazy heap. A cached time ``t`` computed at clock ``t0`` stays valid
    while ``now < t``: the stepper never jumps over a boundary (the
    global boundary is the min over all sources), so no change can hide
    in ``(t0, now]`` — which is exactly why reusing the cache is
    float-identical to re-asking the link every step. Entries are
    recomputed the moment the clock reaches them and dropped lazily when
    their link's refcount hits zero.
    """

    def __init__(self) -> None:
        self._refs: Dict[int, int] = {}
        self._links: Dict[int, SupportsNextChange] = {}
        #: Current valid cached next-change per link id; heap entries
        #: whose time disagrees are stale and dropped on sight.
        self._next: Dict[int, float] = {}
        self._heap: List[Tuple[float, int]] = []

    def acquire(self, link: SupportsNextChange, now: float) -> None:
        """A flow started using ``link``; begin tracking its changes."""
        key = id(link)
        count = self._refs.get(key, 0)
        self._refs[key] = count + 1
        if count:
            return
        self._links[key] = link
        self._push(key, link.next_change_after(now))

    def release(self, link: SupportsNextChange) -> None:
        """A flow stopped using ``link``; drop tracking at refcount zero."""
        key = id(link)
        count = self._refs.get(key, 0)
        if count <= 1:
            self._refs.pop(key, None)
            self._links.pop(key, None)
            self._next.pop(key, None)
        else:
            self._refs[key] = count - 1

    def _push(self, key: int, when: float) -> None:
        self._next[key] = when
        if not math.isinf(when):
            heapq.heappush(self._heap, (when, key))

    def next_change(self, now: float) -> float:
        """Earliest capacity change strictly after ``now`` (``inf``: none)."""
        heap = self._heap
        while heap:
            when, key = heap[0]
            if self._next.get(key) != when:
                heapq.heappop(heap)  # stale: link released or rescheduled
                continue
            if when <= now:
                # The clock reached this boundary: ask the link afresh.
                heapq.heappop(heap)
                link = self._links.get(key)
                if link is not None:
                    self._push(key, link.next_change_after(now))
                continue
            return when
        return math.inf

    def tracked_count(self) -> int:
        """Number of distinct links currently tracked (for tests)."""
        return len(self._refs)


class SimulationEngine:
    """The clock owner: one heap of timers plus the other boundary sources.

    The engine itself is policy-free: it answers "when is the next
    discrete event?" by combining

    * its own timer queue (:meth:`schedule_at` / :meth:`schedule_in`),
    * the :class:`LinkChangeTracker` fed by the fluid layer, and
    * a flow-ETA source callback installed by the fluid layer (the
      earliest completion among flows currently moving bytes).

    and it advances the clock monotonically via :meth:`advance_clock`.
    The fluid layer remains responsible for *interpreting* boundaries
    (moving bytes, finishing flows); see
    :class:`repro.netsim.fluid.FluidNetwork`.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.time = float(start_time)
        self.timers = EventQueue()
        self.links = LinkChangeTracker()
        self._eta_source: Optional[Callable[[], float]] = None

    def set_eta_source(self, source: Optional[Callable[[], float]]) -> None:
        """Install the flow-completion ETA source (``None`` to clear)."""
        self._eta_source = source

    def schedule_at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulation ``time``."""
        return self.timers.schedule(time, callback, label=label)

    def schedule_in(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Schedule ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0.0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.timers.schedule(self.time + delay, callback, label=label)

    def next_boundary(self) -> float:
        """Earliest of: timer, link capacity change, flow-completion ETA."""
        boundary = self.timers.peek_time()
        change = self.links.next_change(self.time)
        if change < boundary:
            boundary = change
        if self._eta_source is not None:
            eta = self._eta_source()
            if eta < boundary:
                boundary = eta
        return boundary

    def advance_clock(self, until: float) -> None:
        """Move the clock forward to ``until`` (monotonic, never back)."""
        if until < self.time:
            raise RuntimeError(
                f"time went backwards: {self.time} -> {until}"
            )
        self.time = until

    def run_due_timers(self) -> int:
        """Run every timer due at the current clock; returns how many ran."""
        ran = 0
        while True:
            event = self.timers.pop_due(self.time)
            if event is None:
                return ran
            if not event.cancelled:
                event.callback()
                ran += 1

    def has_timers(self) -> bool:
        """Whether any live timer remains queued."""
        return bool(self.timers)
