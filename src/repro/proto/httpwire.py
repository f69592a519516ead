"""Minimal HTTP/1.1 wire helpers shared by the prototype components.

Covers exactly what the 3GOL data path needs: request/status lines,
headers, Content-Length-framed bodies, and persistent connections. No
chunked encoding (the origin always knows its sizes), no TLS.

Every parser here assumes a *hostile* peer: header sections are capped
(enforced after each recv, so one oversized chunk cannot blow past the
limit), bodies are bounded, Content-Length and status codes are parsed
strictly, and every read can carry a per-socket recv timeout so a
stalling peer raises :class:`~repro.proto.errors.StallError` instead of
hanging the caller forever. All failures are typed
:class:`~repro.proto.errors.ProtocolError` subclasses.
"""

from __future__ import annotations

import math
import socket
import time
from typing import Dict, Optional, Tuple

from repro.proto.errors import (
    FramingError,
    ProtocolError,
    StallError,
    WireError,
)

__all__ = [
    "DEADLINE_HEADER",
    "FramingError",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "MAX_HEADER_COUNT",
    "MIN_TIMEOUT_S",
    "ProtocolError",
    "StallError",
    "WireError",
    "clamp_timeout",
    "parse_content_length",
    "parse_deadline",
    "parse_head",
    "parse_status_line",
    "read_body",
    "read_response",
    "read_until_blank_line",
    "render_request",
    "render_response",
]

#: End-to-end deadline budget header: the requester's *remaining*
#: deadline in seconds at send time. Each hop clamps its per-read
#: timeouts to the remaining budget and rewrites the header with what
#: is left when it forwards, so a slow hop cannot spend a downstream
#: hop's time.
DEADLINE_HEADER = "x-3gol-deadline-s"

MAX_HEADER_BYTES = 64 * 1024
#: Upper bound on distinct header lines in one message.
MAX_HEADER_COUNT = 256
#: Upper bound on a Content-Length this stack will ever read: large
#: enough for any asset the prototype serves (whole-video downloads are
#: segmented), small enough that a lying peer cannot balloon memory.
MAX_BODY_BYTES = 256 * 1024 * 1024
RECV_CHUNK = 64 * 1024

#: Default per-socket recv timeout for reads *from an upstream peer we
#: initiated a request to* (a stalled origin or phone proxy).
DEFAULT_RECV_TIMEOUT = 30.0
#: Default bound on how long a server-side connection may sit idle
#: between requests before it is reclaimed.
DEFAULT_IDLE_TIMEOUT = 120.0

#: Floor for a deadline-clamped socket timeout: even a nearly spent
#: budget gets one short bounded read rather than a zero timeout
#: (socket semantics would treat 0 as non-blocking).
MIN_TIMEOUT_S = 0.05


def clamp_timeout(base: float, remaining_s: Optional[float]) -> float:
    """Per-read timeout bounded by a propagated deadline budget."""
    if remaining_s is None:
        return base
    return max(MIN_TIMEOUT_S, min(base, remaining_s))

class _ReadBudget:
    """Overall wall-clock bound across a multi-recv read.

    A per-recv timeout alone cannot stop a slow-loris peer: one byte
    every ``timeout - ε`` seconds resets the clock forever. The budget
    caps the *whole* read — each recv's timeout shrinks to what is
    left, and a spent budget raises :class:`StallError` just like a
    silent peer, but naming the budget. ``None`` disables the bound
    (the prior behaviour).
    """

    def __init__(self, overall_timeout: Optional[float]) -> None:
        self._stop_at = (
            None
            if overall_timeout is None
            else time.monotonic() + overall_timeout
        )
        self.overall_timeout = overall_timeout
        #: Whether the last recv timeout was cut to the remaining budget,
        #: so that its expiry is the budget's, not a silent peer's.
        self.binding = False

    def recv_timeout(
        self, base: Optional[float]
    ) -> Optional[float]:
        """The next recv's timeout; raises when the budget is spent."""
        if self._stop_at is None:
            return base
        remaining = self._stop_at - time.monotonic()
        if remaining <= 0.0:
            raise StallError(self.spent())
        self.binding = base is None or remaining < base
        if base is None:
            return max(MIN_TIMEOUT_S, remaining)
        return clamp_timeout(base, remaining)

    def spent(self) -> str:
        """The stall message for a read cut off by the overall budget."""
        return f"read exceeded its {self.overall_timeout}s budget"


#: Control characters never valid inside a header value (HTAB allowed).
_VALUE_CTL = frozenset(
    chr(c) for c in range(0x20) if chr(c) != "\t"
) | {"\x7f"}


def _recv(
    sock: socket.socket, timeout: Optional[float], budget: _ReadBudget
) -> bytes:
    """One recv with stall translation.

    ``timeout`` (seconds) bounds this single read when given; ``None``
    leaves the socket's own timeout configuration alone. Either way an
    expired socket timeout surfaces as :class:`StallError` so callers
    handle a silent peer exactly like any other protocol failure; when
    ``budget`` had cut the timeout short, the error names the budget.
    """
    if timeout is not None:
        sock.settimeout(timeout)
    try:
        return sock.recv(RECV_CHUNK)
    except socket.timeout:
        if budget.binding:
            raise StallError(budget.spent()) from None
        bound = timeout if timeout is not None else sock.gettimeout()
        raise StallError(f"peer sent nothing for {bound}s") from None


def read_until_blank_line(
    sock: socket.socket,
    buffered: bytes = b"",
    max_header_bytes: int = MAX_HEADER_BYTES,
    timeout: Optional[float] = None,
    overall_timeout: Optional[float] = None,
) -> Tuple[bytes, bytes]:
    """Read up to and including the header/body separator.

    Returns ``(head, leftover)`` where ``head`` ends with CRLFCRLF and
    ``leftover`` is any body bytes already read. The header cap is
    enforced *after* every append: a peer that delivers one huge chunk
    trips the limit just like one that trickles. ``timeout`` bounds
    each recv; ``overall_timeout`` bounds the whole header read, so a
    slow-loris peer trickling a byte per recv-timeout still stalls out.
    """
    budget = _ReadBudget(overall_timeout)
    data = buffered
    while b"\r\n\r\n" not in data:
        if len(data) > max_header_bytes:
            raise WireError(
                f"header section exceeds {max_header_bytes} bytes"
            )
        chunk = _recv(sock, budget.recv_timeout(timeout), budget)
        if not chunk:
            if not data:
                raise WireError("connection closed before request")
            raise WireError("connection closed mid-header")
        data += chunk
    head, _, leftover = data.partition(b"\r\n\r\n")
    if len(head) + 4 > max_header_bytes:
        raise WireError(f"header section exceeds {max_header_bytes} bytes")
    return head + b"\r\n\r\n", leftover


def parse_head(head: bytes) -> Tuple[str, Dict[str, str]]:
    """Split a header block into its first line and a lowercase header map.

    Rejects header names with whitespace or control characters, header
    values carrying CTLs (the header-injection vector), oversized header
    counts, and conflicting duplicate ``Content-Length`` lines.
    """
    lines = head.decode("latin-1").split("\r\n")
    first = lines[0]
    headers: Dict[str, str] = {}
    count = 0
    for line in lines[1:]:
        if not line:
            continue
        count += 1
        if count > MAX_HEADER_COUNT:
            raise WireError(f"more than {MAX_HEADER_COUNT} header lines")
        if ":" not in line:
            raise WireError(f"malformed header line {line!r}")
        name, _, value = line.partition(":")
        name = name.strip()
        if not name or any(c.isspace() or c in _VALUE_CTL for c in name):
            raise WireError(f"malformed header name {name!r}")
        value = value.strip()
        if any(c in _VALUE_CTL for c in value):
            raise WireError(
                f"control character in value of header {name!r}"
            )
        key = name.lower()
        if key == "content-length" and key in headers and (
            headers[key] != value
        ):
            raise FramingError(
                "conflicting duplicate Content-Length headers "
                f"({headers[key]!r} vs {value!r})"
            )
        headers[key] = value
    return first, headers


def parse_content_length(
    headers: Dict[str, str], max_body_bytes: int = MAX_BODY_BYTES
) -> int:
    """Strictly parse the (optional) Content-Length of a header map.

    Absent means 0. Anything but a plain run of digits — signs, spaces,
    floats, hex — is a framing lie, as is a length above
    ``max_body_bytes``.
    """
    raw = headers.get("content-length")
    if raw is None:
        return 0
    if not raw.isascii() or not raw.isdigit():
        raise FramingError(f"malformed Content-Length {raw!r}")
    # Bound the digit count before int(): CPython refuses conversions
    # past ~4300 digits with a bare ValueError, and any value this long
    # is a framing lie regardless (found by fuzzing, seed 0).
    if len(raw) > 19:
        raise FramingError(
            f"Content-Length has {len(raw)} digits ({raw[:24]!r}...)"
        )
    length = int(raw)
    if length > max_body_bytes:
        raise FramingError(
            f"Content-Length {length} exceeds the {max_body_bytes}-byte "
            "bound"
        )
    return length


def parse_deadline(headers: Dict[str, str]) -> Optional[float]:
    """Strictly parse the (optional) propagated deadline header.

    Absent means no deadline (``None``). A value that is not a finite
    float is a protocol lie from the peer, same as a malformed
    Content-Length. Zero and negative values are *valid* — they mean
    the budget is already spent and the hop should refuse the work.
    """
    raw = headers.get(DEADLINE_HEADER)
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise WireError(
            f"malformed {DEADLINE_HEADER} value {raw!r}"
        ) from None
    if not math.isfinite(value):
        raise WireError(
            f"non-finite {DEADLINE_HEADER} value {raw!r}"
        )
    return value


def parse_status_line(first: str) -> int:
    """Parse and validate an HTTP/1.x status line, returning the code."""
    parts = first.split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise WireError(f"malformed status line {first!r}")
    code = parts[1]
    if len(code) != 3 or not code.isascii() or not code.isdigit():
        raise WireError(f"malformed status code {code!r}")
    status = int(code)
    if not 100 <= status <= 599:
        raise WireError(f"status code {status} out of range")
    return status


def read_body(
    sock: socket.socket,
    leftover: bytes,
    content_length: int,
    max_body_bytes: int = MAX_BODY_BYTES,
    timeout: Optional[float] = None,
    overall_timeout: Optional[float] = None,
) -> bytes:
    """Read exactly ``content_length`` body bytes.

    ``timeout`` bounds each recv; ``overall_timeout`` bounds the whole
    body read (the slow-loris defence, as in
    :func:`read_until_blank_line`).
    """
    if content_length < 0:
        raise FramingError(f"negative Content-Length {content_length}")
    if content_length > max_body_bytes:
        raise FramingError(
            f"Content-Length {content_length} exceeds the "
            f"{max_body_bytes}-byte bound"
        )
    budget = _ReadBudget(overall_timeout)
    body = leftover
    while len(body) < content_length:
        chunk = _recv(sock, budget.recv_timeout(timeout), budget)
        if not chunk:
            raise WireError("connection closed mid-body")
        body += chunk
    if len(body) > content_length:
        raise FramingError("more body bytes than Content-Length")
    return body


def render_request(
    method: str,
    path: str,
    host: str,
    headers: Optional[Dict[str, str]] = None,
    body: bytes = b"",
) -> bytes:
    """Serialise a request with Content-Length framing."""
    out = [f"{method} {path} HTTP/1.1", f"Host: {host}"]
    merged = {"Content-Length": str(len(body))} if body else {}
    if headers:
        merged.update(headers)
    for name, value in merged.items():
        out.append(f"{name}: {value}")
    out.append("Connection: keep-alive")
    return ("\r\n".join(out) + "\r\n\r\n").encode("latin-1") + body


def render_response(
    status: int,
    reason: str,
    body: bytes = b"",
    content_type: str = "application/octet-stream",
) -> bytes:
    """Serialise a response with Content-Length framing."""
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1") + body


def read_response(
    sock: socket.socket,
    timeout: Optional[float] = None,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> Tuple[int, Dict[str, str], bytes]:
    """Read one response; returns (status, headers, body)."""
    head, leftover = read_until_blank_line(sock, timeout=timeout)
    first, headers = parse_head(head)
    status = parse_status_line(first)
    length = parse_content_length(headers, max_body_bytes)
    body = read_body(
        sock, leftover, length, max_body_bytes=max_body_bytes,
        timeout=timeout,
    )
    return status, headers, body
