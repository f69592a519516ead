"""The mobile component's proxy, as a real TCP server.

"[The mobile component] implements a proxy that pipes incoming
connections through the 3G network" (§2.4). Here the 3G interface is a
token-bucket shaper: every byte relayed between the LAN-facing socket and
the origin passes through the bucket, so the proxy's throughput is the
emulated channel's. Both directions are shaped (HSDPA down, HSUPA up may
have different buckets).

The proxy assumes hostile peers on both sides: reads are bounded, carry
per-socket recv timeouts and, on the LAN side, an overall budget that
stops a trickling client, and a bad peer degrades exactly one
connection — a malformed or trickled request earns a 400, a garbled
or stalling origin earns a 502/504, either lands a structured
:class:`~repro.core.resilience.DegradationLog` entry, and the accept
loop keeps serving every other connection.
"""

from __future__ import annotations

import contextlib
import socket
import threading
from typing import Optional, Tuple

from repro.core.resilience import DegradationLog
from repro.obs.capture import Instrumentation, current as obs_current
from repro.proto import httpwire
from repro.proto.errors import StallError, WireError
from repro.proto.listener import Listener
from repro.proto.shaping import TokenBucket, shaped_send


class MobileProxy(Listener):
    """A forwarding HTTP proxy with per-direction rate shaping."""

    def __init__(
        self,
        origin_address: Tuple[str, int],
        down_bucket: Optional[TokenBucket] = None,
        up_bucket: Optional[TokenBucket] = None,
        name: str = "phone",
        recv_timeout: float = httpwire.DEFAULT_RECV_TIMEOUT,
        idle_timeout: float = httpwire.DEFAULT_IDLE_TIMEOUT,
        degradation_log: Optional[DegradationLog] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        super().__init__(name)
        self.origin_address = origin_address
        self.down_bucket = down_bucket
        self.up_bucket = up_bucket
        #: Bound on each upstream (origin-facing) recv gap.
        self.recv_timeout = recv_timeout
        #: Bound on how long a LAN connection may sit idle between
        #: requests before it is reclaimed.
        self.idle_timeout = idle_timeout
        #: Structured log of every per-connection degradation.
        self.degradations = (
            degradation_log if degradation_log is not None else DegradationLog()
        )
        #: Bytes relayed in each direction, for cap accounting.
        self.bytes_down = 0
        self.bytes_up = 0
        self._counters_lock = threading.Lock()
        #: Instrumentation handle; worker threads only touch locked
        #: metric counters (never the tracer) through it.
        self._obs = obs if obs is not None else obs_current()

    # ------------------------------------------------------------------
    # Relaying
    # ------------------------------------------------------------------
    def _serve_connection(self, client: socket.socket) -> None:
        """Pipe one LAN connection's requests through the shaped uplink.

        One upstream connection to the origin per client connection —
        the same connection-per-path model the prototype client uses.
        Protocol failures degrade *this connection only*: the client
        gets an error response naming the failure, a structured event
        lands in :attr:`degradations`, and the proxy keeps serving.
        """
        upstream = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            # Every blocking op on either socket is timeout-bounded
            # (RL012): the LAN side by the idle/recv timeouts, the
            # origin side by the recv timeout, both possibly clamped
            # by a propagated deadline below.
            client.settimeout(self.idle_timeout)
            upstream.settimeout(self.recv_timeout)
            try:
                upstream.connect(self.origin_address)
            except OSError as exc:
                self.degradations.record(
                    kind="peer-unreachable",
                    time=self._now(),
                    path_name=self.name,
                    detail=f"origin connect failed: {exc!r}",
                )
                with contextlib.suppress(OSError):
                    client.sendall(
                        httpwire.render_response(502, "Bad Gateway")
                    )
                return
            leftover = b""
            while True:
                # Request from the LAN client. The overall bounds stop
                # a slow-loris client with the service's multiples:
                # twice the idle timeout for the head, four recv
                # timeouts (or the propagated deadline) for the body.
                try:
                    head, leftover = httpwire.read_until_blank_line(
                        client,
                        leftover,
                        timeout=self.idle_timeout,
                        overall_timeout=2.0 * self.idle_timeout,
                    )
                    first, headers = httpwire.parse_head(head)
                    length = httpwire.parse_content_length(headers)
                    deadline_s = httpwire.parse_deadline(headers)
                    body = httpwire.read_body(
                        client,
                        leftover,
                        length,
                        timeout=self._clamp(deadline_s),
                        overall_timeout=httpwire.clamp_timeout(
                            4.0 * self.recv_timeout, deadline_s
                        ),
                    )
                except WireError as exc:
                    self._reject_client(client, exc)
                    return
                leftover = b""
                # A spent deadline budget is refused up front: the
                # client's clock already ran out, so relaying would
                # only burn the shaped uplink on an answer nobody
                # waits for.
                if deadline_s is not None and deadline_s <= 0.0:
                    self._reject_deadline(client, first, deadline_s)
                    return
                # Relay upstream and read the origin's answer; a bad or
                # stalling origin fails this transfer with a 502/504.
                try:
                    shaped_send(upstream, head + body, self.up_bucket)
                    with self._counters_lock:
                        self.bytes_up += len(body)
                    if self._obs is not None:
                        self._obs.count(
                            "proxy.bytes",
                            amount=float(len(body)),
                            direction="up",
                        )
                    status, resp_headers, resp_body = httpwire.read_response(
                        upstream, timeout=self._clamp(deadline_s)
                    )
                except (WireError, OSError) as exc:
                    self._reject_upstream(client, first, exc)
                    return
                response = httpwire.render_response(
                    status,
                    "OK" if status == 200 else "Err",
                    resp_body,
                    content_type=resp_headers.get(
                        "content-type", "application/octet-stream"
                    ),
                )
                # Count before sending: the client may observe the full
                # response the instant sendall returns, so post-send
                # accounting would race observers of the counters.
                with self._counters_lock:
                    self.bytes_down += len(resp_body)
                if self._obs is not None:
                    self._obs.count(
                        "proxy.bytes",
                        amount=float(len(resp_body)),
                        direction="down",
                    )
                shaped_send(client, response, self.down_bucket)
        except OSError:
            # The LAN client vanished mid-exchange; nothing to answer.
            pass
        finally:
            for sock in (client, upstream):
                with contextlib.suppress(OSError):
                    sock.close()

    def _clamp(self, deadline_s: Optional[float]) -> float:
        """Per-read timeout, clamped to the propagated deadline budget."""
        return httpwire.clamp_timeout(self.recv_timeout, deadline_s)

    def _reject_deadline(
        self, client: socket.socket, request_line: str, deadline_s: float
    ) -> None:
        """The propagated deadline is already spent: 504 without relay."""
        parts = request_line.split(" ")
        self.degradations.record(
            kind="deadline-expired",
            time=self._now(),
            path_name=self.name,
            item_label=parts[1] if len(parts) > 1 else "",
            detail=f"deadline budget spent ({deadline_s:.3f}s remaining)",
        )
        with contextlib.suppress(OSError):
            client.sendall(
                httpwire.render_response(504, "Deadline Expired")
            )

    def _reject_client(self, client: socket.socket, exc: WireError) -> None:
        """A malformed/stalled LAN request: 400 this connection only.

        A clean keep-alive close ("connection closed before request")
        is the normal end of a persistent connection, not a
        degradation.
        """
        if "closed before request" in str(exc):
            return
        self.degradations.record(
            kind="bad-peer",
            time=self._now(),
            path_name=self.name,
            detail=f"malformed LAN request: {exc!r}",
        )
        with contextlib.suppress(OSError):
            client.sendall(httpwire.render_response(400, "Bad Request"))

    def _reject_upstream(
        self, client: socket.socket, request_line: str, exc: Exception
    ) -> None:
        """A garbled or silent origin: 502/504 this transfer only."""
        stalled = isinstance(exc, (StallError, socket.timeout))
        self.degradations.record(
            kind="stall" if stalled else "bad-peer",
            time=self._now(),
            path_name=self.name,
            item_label=request_line.split(" ")[1]
            if len(request_line.split(" ")) > 1
            else "",
            detail=f"upstream failure: {exc!r}",
        )
        status, reason = (
            (504, "Gateway Timeout") if stalled else (502, "Bad Gateway")
        )
        with contextlib.suppress(OSError):
            client.sendall(httpwire.render_response(status, reason))
