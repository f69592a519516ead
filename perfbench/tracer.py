"""Spans recorded from outside the program, and the patches that record them.

:class:`Tracer` keeps spans in memory: each has a name, a start, an end
and the span that was open on the same thread when it began (its
parent). A span's *self time* is its duration minus the time its child
spans cover. Per name the tracer sums calls, self time and total time;
the raw spans are kept up to a cap and written out at the end.

:class:`Patches` swaps a function attribute of a module or class for a
span-recording wrapper and puts every original back on
:meth:`Patches.restore`. Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Raw spans kept for the written trace; aggregates are always exact.
MAX_SPANS = 100_000


@dataclass
class SpanStats:
    """Aggregate of every span with one name."""

    calls: int = 0
    #: Calls whose parent span had a different name (recursion and
    #: ``super()`` calls into the same layer are not counted twice).
    outer_calls: int = 0
    self_s: float = 0.0
    #: Duration summed over outer calls only.
    total_s: float = 0.0

    def add(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.outer_calls += other.outer_calls
        self.self_s += other.self_s
        self.total_s += other.total_s


class _Frame:
    __slots__ = ("name", "start", "child_s", "span_id", "parent_id")

    def __init__(
        self, name: str, start: float, span_id: int, parent_id: int
    ) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.span_id = span_id
        self.parent_id = parent_id


class Tracer:
    """In-memory span recorder; thread-safe."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: Dict[str, SpanStats] = {}
        #: Values observed at span boundaries (e.g. admission waits).
        self.values: Dict[str, List[float]] = {}
        #: (span id, parent id, name, start, end, thread id) rows.
        self.spans: List[Tuple[int, int, str, float, float, int]] = []
        self.dropped = 0
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack: Optional[List[_Frame]] = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def enter(self, name: str) -> _Frame:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent_id = stack[-1].span_id if stack else 0
        frame = _Frame(name, self.clock(), span_id, parent_id)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self.clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_s += duration
        outer = parent is None or parent.name != frame.name
        self_s = duration - frame.child_s
        with self._lock:
            stats = self.stats.get(frame.name)
            if stats is None:
                stats = self.stats[frame.name] = SpanStats()
            stats.calls += 1
            stats.self_s += self_s
            if outer:
                stats.outer_calls += 1
                stats.total_s += duration
            if len(self.spans) < MAX_SPANS:
                self.spans.append(
                    (
                        frame.span_id,
                        frame.parent_id,
                        frame.name,
                        frame.start,
                        end,
                        threading.get_ident(),
                    )
                )
            else:
                self.dropped += 1

    def observe(self, name: str, value: float) -> None:
        """Keep one observed value (thread-safe)."""
        with self._lock:
            self.values.setdefault(name, []).append(value)

    def wrap(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        """``func`` recording one ``name`` span per call."""
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.enter(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.exit(frame)

        return traced

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def take(self) -> Dict[str, SpanStats]:
        """Return the aggregates so far and start new ones."""
        with self._lock:
            stats, self.stats = self.stats, {}
        return stats

    def take_values(self) -> Dict[str, List[float]]:
        """Return the observed values so far and start new ones."""
        with self._lock:
            values, self.values = self.values, {}
        return values


class Patches:
    """Attribute swaps that can all be undone."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        """Set ``owner.attr`` to ``new``; the attribute must be defined
        on ``owner`` itself (not inherited), so restoring is exact."""
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} defines no {attr!r}")
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def wrap(self, tracer: Tracer, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = vars(owner)[attr] if attr in vars(owner) else None
        if isinstance(original, classmethod):
            self.replace(
                owner, attr, classmethod(tracer.wrap(name, original.__func__))
            )
        else:
            self.replace(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()
