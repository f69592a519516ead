"""The long-running onload service.

:class:`OnloadService` promotes the one-shot proto components to a
service that serves heavy traffic and survives it: a real TCP relay on
127.0.0.1 that pipes client requests to one of several upstream *legs*
(the ADSL gateway or a phone's shaped 3G proxy), with

* **admission control and backpressure** — a bounded flow pool with a
  bounded, deadline-bounded wait queue; overload is shed explicitly
  with a 503 and a structured ``overload-shed`` degradation, never
  queued unboundedly;
* a shared :class:`~repro.core.resilience.RetryBudget` — upstream
  connect/relay retries spend from one token bucket with jittered
  backoff, so an upstream outage cannot fan out into a retry storm;
* **deadline propagation** — the client's deadline header clamps every
  per-read timeout on both sockets and is rewritten with the remaining
  budget when the request is forwarded;
* **cap/permit integration** — cellular legs are metered through a
  :class:`~repro.core.resilience.FlowLedger` into the shared (now
  lock-guarded) :class:`~repro.core.captracker.CapTracker`; a permit
  revocation aborts the leg's in-flight flows mid-transfer, and every
  abort is trued up on settlement;
* a **graceful drain state machine** — ``stop()`` moves the
  :class:`~repro.service.lifecycle.Lifecycle` to ``draining``, stops
  accepting, lets in-flight flows finish under a deadline, aborts the
  stragglers (``drain-aborted``), and only then reaches ``stopped``.

Every admitted flow ends in exactly one of three outcomes —
``completed``, ``shed`` or ``aborted`` — recorded in an in-memory
journal whose events (``service.flow.admit`` / ``service.flow.end`` /
lifecycle markers) are flushed to the tracer from a single thread after
the drain, keeping trace emission single-threaded as the obs layer
requires. The drain-discipline hunt oracle checks that pairing.
"""

from __future__ import annotations

import contextlib
import itertools
import socket
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.resilience import DegradationLog, FlowLedger, RetryBudget
from repro.obs.capture import Instrumentation, current as obs_current
from repro.proto import httpwire
from repro.proto.errors import StallError, WireError
from repro.proto.listener import Listener
from repro.service.admission import AdmissionController
from repro.service.lifecycle import (
    DRAINING,
    Deadline,
    Lifecycle,
    SERVING,
    STARTING,
    STOPPED,
)

__all__ = [
    "DrainReport",
    "FlowRecord",
    "OnloadService",
    "ServiceLeg",
    "ServiceReport",
]

#: Flow outcomes (the ``service.flow.end`` vocabulary).
COMPLETED = "completed"
SHED = "shed"
ABORTED = "aborted"


@dataclass(frozen=True)
class ServiceLeg:
    """One upstream the service may relay through.

    ``device`` names the cellular phone whose cap meters the leg's
    bytes; ``None`` marks the unmetered ADSL leg. ``cell`` is the
    device's cell for permit requests.
    """

    name: str
    address: Tuple[str, int]
    device: Optional[str] = None
    cell: str = ""


@dataclass
class FlowRecord:
    """Terminal accounting for one flow."""

    flow_id: str
    leg: str
    admitted: bool
    outcome: str
    reason: str
    status: int
    transferred_bytes: int
    latency_s: float


@dataclass
class DrainReport:
    """What the drain state machine did."""

    in_flight: int
    drained: int
    aborted: int
    elapsed_s: float
    met_deadline: bool


@dataclass
class ServiceReport:
    """Aggregate view over every flow the service ever saw."""

    flows: List[FlowRecord]
    drain: Optional[DrainReport]
    active: int

    @property
    def admitted(self) -> int:
        """Flows that got a pool slot."""
        return sum(1 for f in self.flows if f.admitted)

    def outcome_counts(self) -> Dict[str, int]:
        """Flow count per terminal outcome (admitted and shed alike)."""
        counts: Dict[str, int] = {}
        for flow in self.flows:
            counts[flow.outcome] = counts.get(flow.outcome, 0) + 1
        return counts

    def shed_reasons(self) -> Dict[str, int]:
        """Shed/abort reasons, for the load report."""
        reasons: Dict[str, int] = {}
        for flow in self.flows:
            if flow.reason:
                reasons[flow.reason] = reasons.get(flow.reason, 0) + 1
        return reasons

    def stranded(self) -> int:
        """Admitted flows without a terminal outcome (must be zero)."""
        bad = sum(
            1
            for f in self.flows
            if f.outcome not in (COMPLETED, SHED, ABORTED)
        )
        return bad + self.active


class _Flow:
    """In-flight state for one admitted flow."""

    def __init__(
        self, flow_id: str, client: socket.socket, leg: ServiceLeg
    ) -> None:
        self.flow_id = flow_id
        self.client = client
        self.leg = leg
        self.cancel = threading.Event()
        self.abort_reason = ""

    def abort(self, reason: str) -> None:
        """Cancel the flow; the worker observes it at its next step.

        Closing the socket is part of the cancel: a worker blocked in
        ``recv`` holds no lock and checks no flag, so the close is what
        actually unblocks it.
        """
        if not self.cancel.is_set():
            self.abort_reason = reason
            self.cancel.set()
        with contextlib.suppress(OSError):
            self.client.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self.client.close()


class OnloadService(Listener):
    """A long-running, overload-safe onloading relay service."""

    def __init__(
        self,
        legs: List[ServiceLeg],
        max_active: int = 64,
        max_queued: int = 32,
        queue_timeout_s: float = 0.5,
        recv_timeout: float = 5.0,
        idle_timeout: float = 10.0,
        flow_deadline_s: Optional[float] = 30.0,
        drain_deadline_s: float = 5.0,
        abort_grace_s: float = 5.0,
        ledger: Optional[FlowLedger] = None,
        retry_budget: Optional[RetryBudget] = None,
        degradation_log: Optional[DegradationLog] = None,
        name: str = "onload",
        obs: Optional[Instrumentation] = None,
    ) -> None:
        if not legs:
            raise ValueError("need at least one upstream leg")
        super().__init__(name)
        self.legs = list(legs)
        self.recv_timeout = recv_timeout
        self.idle_timeout = idle_timeout
        #: Hard bound on one flow's total lifetime (``None``: unbounded).
        #: This is what ultimately defeats a slow-loris client: every
        #: read is clamped to the shrinking budget, so a trickler hits
        #: a stall instead of pinning a pool slot forever.
        self.flow_deadline_s = flow_deadline_s
        self.drain_deadline_s = drain_deadline_s
        self.abort_grace_s = abort_grace_s
        self.admission = AdmissionController(
            max_active=max_active,
            max_queued=max_queued,
            queue_timeout_s=queue_timeout_s,
        )
        self.retry_budget = (
            retry_budget if retry_budget is not None else RetryBudget()
        )
        self.ledger = ledger
        self.degradations = (
            degradation_log
            if degradation_log is not None
            else DegradationLog()
        )
        self._obs = obs if obs is not None else obs_current()
        self.lifecycle = Lifecycle()
        self._flow_ids = itertools.count()
        self._active: Dict[str, _Flow] = {}
        self._active_lock = threading.Lock()
        self._records: List[FlowRecord] = []
        self._records_lock = threading.Lock()
        #: (event name, service-relative time, fields) triples; flushed
        #: to the tracer single-threaded after the drain.
        self._journal: List[Tuple[str, float, Dict[str, object]]] = []
        self._journal_lock = threading.Lock()
        self._leg_index = 0
        self._leg_lock = threading.Lock()
        self._unsubscribe_revocations: Optional[Callable[[], None]] = None
        self._drain_report: Optional[DrainReport] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "OnloadService":
        """Move to ``serving`` and begin accepting flows."""
        previous = self.lifecycle.transition(SERVING)
        self._journal_event(
            "service.state", state=SERVING, previous=previous
        )
        if self.ledger is not None:
            self._unsubscribe_revocations = (
                self.ledger.subscribe_revocations(
                    self._on_permit_revoked
                )
            )
        return super().start()

    def stop(self) -> DrainReport:
        """Graceful drain: stop accepting, drain, abort stragglers.

        Always terminates within roughly ``drain_deadline_s +
        abort_grace_s`` and leaves the lifecycle in ``stopped``.
        """
        if self.lifecycle.state == STARTING:
            previous = self.lifecycle.transition(STOPPED)
            self._close()
            self._journal_event(
                "service.state", state=STOPPED, previous=previous
            )
            self._drain_report = DrainReport(0, 0, 0, 0.0, True)
            return self._drain_report
        began = self._now()
        previous = self.lifecycle.transition(DRAINING)
        self._journal_event(
            "service.state", state=DRAINING, previous=previous
        )
        in_flight = self.admission.active
        self._journal_event(
            "service.drain.begin",
            deadline_s=self.drain_deadline_s,
            in_flight=in_flight,
        )
        self.admission.begin_drain()
        self._close()
        drained_in_time = self.admission.wait_idle(self.drain_deadline_s)
        aborted = 0
        if not drained_in_time:
            with self._active_lock:
                stragglers = list(self._active.values())
            for flow in stragglers:
                self.degradations.record(
                    kind="drain-aborted",
                    time=self._now(),
                    path_name=flow.leg.name,
                    item_label=flow.flow_id,
                    detail="drain deadline expired",
                )
                flow.abort("drain-aborted")
                aborted += 1
            # The closes above unblock every straggler's socket op;
            # give the workers a bounded grace to run their terminal
            # accounting (journal, settle, release).
            self.admission.wait_idle(self.abort_grace_s)
        elapsed = self._now() - began
        self._journal_event(
            "service.drain.end",
            drained=in_flight - aborted,
            aborted=aborted,
            elapsed_s=elapsed,
        )
        previous = self.lifecycle.transition(STOPPED)
        self._journal_event(
            "service.state", state=STOPPED, previous=previous
        )
        unsubscribe = self._unsubscribe_revocations
        if unsubscribe is not None:
            unsubscribe()
            self._unsubscribe_revocations = None
        self._drain_report = DrainReport(
            in_flight=in_flight,
            drained=in_flight - aborted,
            aborted=aborted,
            elapsed_s=elapsed,
            met_deadline=elapsed
            <= self.drain_deadline_s + self.abort_grace_s,
        )
        self.flush_trace()
        return self._drain_report

    def __exit__(self, *exc: object) -> None:
        if self.lifecycle.state not in (STOPPED,):
            self.stop()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> ServiceReport:
        """Snapshot of every flow's terminal accounting."""
        with self._records_lock:
            flows = list(self._records)
        with self._active_lock:
            active = len(self._active)
        return ServiceReport(
            flows=flows, drain=self._drain_report, active=active
        )

    def _journal_event(self, name: str, **fields: object) -> None:
        with self._journal_lock:
            self._journal.append((name, self._now(), dict(fields)))

    def flush_trace(self) -> int:
        """Emit the journal to the tracer (single-threaded); idempotent.

        Returns the number of events flushed. Times are service-
        relative seconds, emitted in journal (arrival) order.
        """
        if self._obs is None:
            return 0
        with self._journal_lock:
            entries, self._journal = self._journal, []
        for event_name, event_time, fields in entries:
            self._obs.event(event_name, time=event_time, **fields)
        return len(entries)

    # ------------------------------------------------------------------
    # Accepting
    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        # ``_serve_flow`` is looked up per connection, so a probe
        # patched onto the class after start() still wraps every flow;
        # ``next`` on the shared count is one atomic C call.
        self._serve_flow(conn, f"{self.name}-{next(self._flow_ids)}")

    def _gauge_pool(self) -> None:
        if self._obs is not None:
            self._obs.gauge(
                "service.active_flows", float(self.admission.active)
            )
            self._obs.gauge(
                "service.queue_depth", float(self.admission.queued)
            )

    def _record_end(
        self,
        flow_id: str,
        leg_name: str,
        admitted: bool,
        outcome: str,
        reason: str,
        status: int,
        transferred: int,
        started: float,
    ) -> None:
        latency = self._now() - started
        record = FlowRecord(
            flow_id=flow_id,
            leg=leg_name,
            admitted=admitted,
            outcome=outcome,
            reason=reason,
            status=status,
            transferred_bytes=transferred,
            latency_s=latency,
        )
        with self._records_lock:
            self._records.append(record)
        self._journal_event(
            "service.flow.end",
            flow=flow_id,
            outcome=outcome,
            reason=reason,
            status=status,
            transferred_bytes=transferred,
            latency_s=latency,
        )
        if self._obs is not None:
            self._obs.count("service.flows", outcome=outcome)
            self._obs.observe("service.flow_latency_s", latency)

    def _serve_flow(self, client: socket.socket, flow_id: str) -> None:
        """One connection, admission to terminal outcome.

        Terminal accounting runs in ``finally`` *before* the pool slot
        is released, so ``admission.wait_idle()`` returning True
        implies every admitted flow has journaled its end — the drain
        relies on that ordering.
        """
        started = self._now()
        client.settimeout(self.idle_timeout)
        decision = self.admission.try_admit()
        self._gauge_pool()
        if not decision.admitted:
            if self._obs is not None:
                self._obs.count("service.shed", reason=decision.reason)
            self.degradations.record(
                kind="overload-shed",
                time=self._now(),
                path_name=self.name,
                item_label=flow_id,
                detail=f"admission refused: {decision.reason}",
            )
            self._record_end(
                flow_id, "", False, SHED, decision.reason, 503, 0,
                started,
            )
            with contextlib.suppress(OSError):
                client.sendall(
                    httpwire.render_response(
                        503, "Service Unavailable", b"shed"
                    )
                )
            with contextlib.suppress(OSError):
                client.close()
            return
        leg = self._choose_leg()
        if leg is None:
            # Admitted but no leg currently has authority to carry the
            # flow (caps dry / permits refused on every cellular leg
            # and no ADSL fallback wired).
            try:
                if self._obs is not None:
                    self._obs.count("service.shed", reason="authority")
                self.degradations.record(
                    kind="overload-shed",
                    time=self._now(),
                    path_name=self.name,
                    item_label=flow_id,
                    detail="admission refused: no authorized leg",
                )
                self._record_end(
                    flow_id, "", True, SHED, "authority", 503, 0,
                    started,
                )
                with contextlib.suppress(OSError):
                    client.sendall(
                        httpwire.render_response(
                            503, "Service Unavailable", b"no leg"
                        )
                    )
                with contextlib.suppress(OSError):
                    client.close()
            finally:
                self.admission.release()
                self._gauge_pool()
            return
        flow = _Flow(flow_id, client, leg)
        with self._active_lock:
            self._active[flow_id] = flow
        self._journal_event(
            "service.flow.admit", flow=flow_id, leg=leg.name
        )
        if self.ledger is not None and leg.device is not None:
            self.ledger.open_flow(flow_id, leg.device)
        outcome, reason, status, moved = ABORTED, "internal", 0, 0
        try:
            outcome, reason, status, moved = self._relay_flow(flow)
        finally:
            if self.ledger is not None and leg.device is not None:
                self.ledger.settle(flow_id, float(moved), self._now())
            with contextlib.suppress(OSError):
                client.close()
            with self._active_lock:
                self._active.pop(flow_id, None)
            self._record_end(
                flow_id, leg.name, True, outcome, reason, status,
                moved, started,
            )
            self.admission.release()
            self._gauge_pool()

    # ------------------------------------------------------------------
    # Relaying
    # ------------------------------------------------------------------
    def _choose_leg(self) -> Optional[ServiceLeg]:
        """Round-robin over the legs that currently have authority."""
        now = self._now()
        with self._leg_lock:
            count = len(self.legs)
            for offset in range(count):
                index = (self._leg_index + offset) % count
                leg = self.legs[index]
                if leg.device is None or self.ledger is None or (
                    self.ledger.may_onload(leg.device, leg.cell, now)
                ):
                    self._leg_index = (index + 1) % count
                    return leg
        return None

    def _on_permit_revoked(self, device_name: str) -> None:
        """Backend order: abort this device's in-flight flows now."""
        with self._active_lock:
            victims = [
                flow
                for flow in self._active.values()
                if flow.leg.device == device_name
            ]
        for flow in victims:
            self.degradations.record(
                kind="permit-revoked",
                time=self._now(),
                path_name=flow.leg.name,
                item_label=flow.flow_id,
                detail=f"backend revoked {device_name}'s permit",
            )
            flow.abort("permit-revoked")

    def _meter(self, flow: _Flow, nbytes: int, direction: str) -> None:
        if nbytes <= 0:
            return
        if self._obs is not None:
            self._obs.count(
                "service.bytes", amount=float(nbytes), direction=direction
            )
        if self.ledger is not None and flow.leg.device is not None:
            self.ledger.meter(flow.flow_id, float(nbytes), self._now())

    def _dial(
        self, flow: _Flow, deadline: Deadline
    ) -> Optional[socket.socket]:
        """Connect to the flow's leg under the shared retry budget.

        Returns ``None`` when the budget (or the deadline) refuses
        another attempt; the caller sheds the flow.
        """
        attempt = 0
        while True:
            if flow.cancel.is_set() or deadline.expired:
                return None
            try:
                upstream = socket.create_connection(
                    flow.leg.address,
                    timeout=deadline.clamp(self.recv_timeout),
                )
                self.retry_budget.record_success()
                return upstream
            except OSError as exc:
                attempt += 1
                self.degradations.record(
                    kind="peer-unreachable",
                    time=self._now(),
                    path_name=flow.leg.name,
                    item_label=flow.flow_id,
                    detail=f"upstream connect failed: {exc!r}",
                )
                delay = self.retry_budget.acquire(attempt)
                if delay is None:
                    self.degradations.record(
                        kind="retry-budget-exhausted",
                        time=self._now(),
                        path_name=flow.leg.name,
                        item_label=flow.flow_id,
                        detail=(
                            f"no retry token after attempt {attempt}"
                        ),
                    )
                    return None
                # The jittered backoff sleep doubles as a cancel point.
                flow.cancel.wait(delay)

    def _respond(
        self, flow: _Flow, payload: bytes
    ) -> bool:
        """Send a response to the client; False when it vanished."""
        try:
            flow.client.sendall(payload)
            return True
        except OSError:
            return False

    def _relay_flow(
        self, flow: _Flow
    ) -> Tuple[str, str, int, int]:
        """Serve one flow's requests; returns (outcome, reason, status,
        cellular-ish bytes moved).

        Structured on the MobileProxy relay loop, with the service's
        extra machinery: flow deadline, propagated per-request
        deadline, retry budget on the upstream, cancellation points
        between every blocking step.
        """
        flow_deadline = Deadline(self.flow_deadline_s)
        moved = 0
        status = 0
        upstream = self._dial(flow, flow_deadline)
        if upstream is None:
            if flow.cancel.is_set():
                return (ABORTED, flow.abort_reason, 0, moved)
            reason = (
                "deadline-expired"
                if flow_deadline.expired
                else "retry-budget-exhausted"
            )
            self._respond(
                flow,
                httpwire.render_response(
                    503, "Service Unavailable", b"upstream"
                ),
            )
            return (SHED, reason, 503, moved)
        try:
            leftover = b""
            while True:
                if flow.cancel.is_set():
                    return (ABORTED, flow.abort_reason, status, moved)
                if flow_deadline.expired:
                    return self._expire_flow(flow, moved)
                try:
                    # The overall bounds are the slow-loris defence: a
                    # peer trickling bytes under the per-recv timeout
                    # still stalls out when the whole read outlives
                    # twice the idle/recv budget (or the flow deadline,
                    # whichever is tighter).
                    head, leftover = httpwire.read_until_blank_line(
                        flow.client,
                        leftover,
                        timeout=flow_deadline.clamp(self.idle_timeout),
                        overall_timeout=flow_deadline.clamp(
                            2.0 * self.idle_timeout
                        ),
                    )
                    first, headers = httpwire.parse_head(head)
                    length = httpwire.parse_content_length(headers)
                    request_budget = httpwire.parse_deadline(headers)
                    body = httpwire.read_body(
                        flow.client,
                        leftover,
                        length,
                        timeout=flow_deadline.clamp(self.recv_timeout),
                        overall_timeout=flow_deadline.clamp(
                            4.0 * self.recv_timeout
                        ),
                    )
                except WireError as exc:
                    return self._end_on_client_error(
                        flow, exc, flow_deadline, status, moved
                    )
                except OSError:
                    return (
                        ABORTED,
                        flow.abort_reason or "path-fault",
                        status,
                        moved,
                    )
                leftover = b""
                deadline = self._effective_deadline(
                    flow_deadline, request_budget
                )
                if deadline.expired:
                    self.degradations.record(
                        kind="deadline-expired",
                        time=self._now(),
                        path_name=flow.leg.name,
                        item_label=flow.flow_id,
                        detail="request arrived with a spent budget",
                    )
                    self._respond(
                        flow,
                        httpwire.render_response(
                            504, "Deadline Expired"
                        ),
                    )
                    return (SHED, "deadline-expired", 504, moved)
                exchanged = self._exchange_upstream(
                    flow, upstream, first, headers, body, deadline
                )
                if exchanged is None:
                    if flow.cancel.is_set():
                        return (
                            ABORTED, flow.abort_reason, status, moved
                        )
                    self._respond(
                        flow,
                        httpwire.render_response(
                            503, "Service Unavailable", b"upstream"
                        ),
                    )
                    return (SHED, "retry-budget-exhausted", 503, moved)
                upstream, status, response, up_bytes = exchanged
                moved += up_bytes + len(response)
                self._meter(flow, up_bytes, "up")
                self._meter(flow, len(response), "down")
                payload = httpwire.render_response(
                    status, "OK" if status == 200 else "Err", response
                )
                if not self._respond(flow, payload):
                    return (
                        ABORTED,
                        flow.abort_reason or "path-fault",
                        status,
                        moved,
                    )
        finally:
            with contextlib.suppress(OSError):
                upstream.close()

    def _expire_flow(
        self, flow: _Flow, moved: int
    ) -> Tuple[str, str, int, int]:
        self.degradations.record(
            kind="deadline-expired",
            time=self._now(),
            path_name=flow.leg.name,
            item_label=flow.flow_id,
            detail=f"flow outlived its {self.flow_deadline_s}s budget",
        )
        self._respond(
            flow, httpwire.render_response(504, "Deadline Expired")
        )
        return (ABORTED, "deadline-expired", 504, moved)

    def _end_on_client_error(
        self,
        flow: _Flow,
        exc: WireError,
        flow_deadline: Deadline,
        status: int,
        moved: int,
    ) -> Tuple[str, str, int, int]:
        """Classify a client-side wire failure into a terminal outcome."""
        if flow.cancel.is_set():
            return (ABORTED, flow.abort_reason, status, moved)
        if "closed before request" in str(exc):
            # Clean end of a keep-alive connection.
            return (COMPLETED, "", status or 200, moved)
        if flow_deadline.expired:
            return self._expire_flow(flow, moved)
        stalled = isinstance(exc, StallError)
        self.degradations.record(
            kind="stall" if stalled else "bad-peer",
            time=self._now(),
            path_name=flow.leg.name,
            item_label=flow.flow_id,
            detail=f"client wire failure: {exc!r}",
        )
        self._respond(
            flow, httpwire.render_response(400, "Bad Request")
        )
        return (COMPLETED, "stall" if stalled else "bad-peer", 400, moved)

    @staticmethod
    def _effective_deadline(
        flow_deadline: Deadline, request_budget: Optional[float]
    ) -> Deadline:
        """The tighter of the flow's own budget and the request's."""
        remaining = flow_deadline.remaining()
        if request_budget is None:
            return flow_deadline
        if remaining is None or request_budget < remaining:
            return Deadline(request_budget)
        return flow_deadline

    def _exchange_upstream(
        self,
        flow: _Flow,
        upstream: socket.socket,
        first: str,
        headers: Dict[str, str],
        body: bytes,
        deadline: Deadline,
    ) -> Optional[Tuple[socket.socket, int, bytes, int]]:
        """Forward one request upstream; retry under the shared budget.

        Returns ``(upstream, status, response body, bytes sent up)``,
        with ``upstream`` possibly a fresh connection after a retry, or
        ``None`` when the retry budget or the deadline gave out.
        """
        request = self._forward_request(first, headers, body, deadline)
        attempt = 0
        while True:
            if flow.cancel.is_set() or deadline.expired:
                return None
            try:
                upstream.settimeout(deadline.clamp(self.recv_timeout))
                upstream.sendall(request)
                status, _, response = httpwire.read_response(
                    upstream,
                    timeout=deadline.clamp(self.recv_timeout),
                )
                self.retry_budget.record_success()
                return (upstream, status, response, len(body))
            except (WireError, OSError) as exc:
                stalled = isinstance(exc, (StallError, socket.timeout))
                self.degradations.record(
                    kind="stall" if stalled else "path-fault",
                    time=self._now(),
                    path_name=flow.leg.name,
                    item_label=flow.flow_id,
                    detail=f"upstream exchange failed: {exc!r}",
                )
                attempt += 1
                delay = self.retry_budget.acquire(attempt)
                if delay is None:
                    self.degradations.record(
                        kind="retry-budget-exhausted",
                        time=self._now(),
                        path_name=flow.leg.name,
                        item_label=flow.flow_id,
                        detail=(
                            f"no retry token after attempt {attempt}"
                        ),
                    )
                    return None
                flow.cancel.wait(delay)
                with contextlib.suppress(OSError):
                    upstream.close()
                fresh = self._dial(flow, deadline)
                if fresh is None:
                    return None
                upstream = fresh

    def _forward_request(
        self,
        first: str,
        headers: Dict[str, str],
        body: bytes,
        deadline: Deadline,
    ) -> bytes:
        """Re-render the client's request for the upstream leg.

        The deadline header is rewritten with the *remaining* budget at
        forward time, so the upstream hop clamps to what is actually
        left rather than what the client started with.
        """
        parts = first.split(" ")
        method = parts[0] if parts else "GET"
        path = parts[1] if len(parts) > 1 else "/"
        host = headers.get("host", "origin")
        extra: Dict[str, str] = {}
        remaining = deadline.header_value()
        if remaining is not None:
            extra[httpwire.DEADLINE_HEADER] = remaining
        return httpwire.render_request(
            method, path, host, headers=extra or None, body=body
        )
