"""Wire-robustness integration: stalling peers, bad peers, bounded reads.

The acceptance behaviour for the hardened data path: a peer that
accepts a connection and then goes silent costs exactly one timed-out
transfer — logged as a structured degradation — never a hung proxy or
client; a malformed peer degrades one connection and the server keeps
serving everyone else.
"""

import contextlib
import socket
import threading
import time

import pytest

from repro.core.items import Transaction, TransferItem
from repro.core.resilience import DegradationLog
from repro.core.scheduler import make_policy
from repro.core.scheduler.runner import DegradationEvent
from repro.fuzz.targets import FakeSocket
from repro.proto import LoopbackOrigin, MobileProxy, PrototypeClient
from repro.proto.httpwire import (
    StallError,
    WireError,
    read_response,
    read_until_blank_line,
    render_request,
)
from repro.web.hls import VideoAsset, VideoQuality
from repro.util.units import kbps


@contextlib.contextmanager
def silent_server():
    """A peer that accepts connections and never sends a byte."""
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind(("127.0.0.1", 0))
    server.listen(8)
    accepted = []
    stopping = threading.Event()

    def accept_loop():
        while not stopping.is_set():
            try:
                conn, _ = server.accept()
            except OSError:
                return
            accepted.append(conn)  # hold it open, say nothing

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    try:
        yield server.getsockname()
    finally:
        stopping.set()
        with contextlib.suppress(OSError):
            server.close()
        for conn in accepted:
            with contextlib.suppress(OSError):
                conn.close()


def small_video():
    return VideoAsset(
        "tiny",
        duration_s=8.0,
        segment_s=2.0,
        qualities=(VideoQuality("Q", kbps(400.0)),),
    )


@pytest.fixture
def origin():
    server = LoopbackOrigin()
    server.host_video(small_video())
    with server:
        yield server


def segment_transaction():
    playlist = small_video().playlist("Q")
    return Transaction(
        [
            TransferItem(segment.uri, segment.size_bytes)
            for segment in playlist.segments
        ],
        name="robustness-dl",
    )


# ---------------------------------------------------------------------------
# Bounded header reads (the header-cap boundary regression)
# ---------------------------------------------------------------------------


class TestHeaderCapBoundary:
    def test_cap_enforced_on_coalesced_chunk(self):
        # The original bug: the cap was checked before each recv, so a
        # single buffered chunk that already contained the CRLFCRLF
        # separator sailed past it regardless of size.
        oversized = (
            b"HTTP/1.1 200 OK\r\nX-F: " + b"a" * 70_000 + b"\r\n\r\n"
        )
        with pytest.raises(WireError, match="header section exceeds"):
            read_until_blank_line(FakeSocket(b""), buffered=oversized)

    def test_exactly_at_cap_passes(self):
        cap = 256
        head = b"A: " + b"a" * (cap - 4 - 3)  # + CRLFCRLF = exactly cap
        data = head + b"\r\n\r\n"
        assert len(data) == cap
        parsed, leftover = read_until_blank_line(
            FakeSocket(b""), buffered=data, max_header_bytes=cap
        )
        assert parsed == data
        assert leftover == b""

    def test_one_byte_past_cap_rejected(self):
        cap = 256
        head = b"A: " + b"a" * (cap - 4 - 2)  # one byte over
        data = head + b"\r\n\r\n"
        assert len(data) == cap + 1
        with pytest.raises(WireError, match="header section exceeds"):
            read_until_blank_line(
                FakeSocket(b""), buffered=data, max_header_bytes=cap
            )

    def test_trickled_oversize_rejected_too(self):
        # The pre-existing path: cap still trips when the head arrives
        # in many small chunks with no separator in sight.
        stream = FakeSocket(b"X: " + b"b" * 1000, chunk=16)
        with pytest.raises(WireError, match="header section exceeds"):
            read_until_blank_line(stream, max_header_bytes=128)


class TestOverallReadBudget:
    """``overall_timeout``: the slow-loris defence on the wire readers."""

    def _trickler(self, payload, gap_s=0.05):
        """A peer that drips ``payload`` one byte per ``gap_s``."""
        ours, theirs = socket.socketpair()

        def drip():
            with contextlib.suppress(OSError):
                for i in range(len(payload)):
                    theirs.sendall(payload[i : i + 1])
                    if stop.wait(gap_s):
                        return

        stop = threading.Event()
        writer = threading.Thread(target=drip, daemon=True)
        writer.start()
        return ours, theirs, stop

    def test_header_trickle_stalls_out_under_the_budget(self):
        head = b"POST / HTTP/1.1\r\nHost: x\r\n" + b"X: " + b"a" * 256
        ours, theirs, stop = self._trickler(head)
        try:
            # Per-recv timeout (1s) never trips at a 0.05s drip; the
            # overall budget is what cuts the read off.
            with pytest.raises(StallError, match="budget"):
                read_until_blank_line(
                    ours, timeout=1.0, overall_timeout=0.3
                )
        finally:
            stop.set()
            ours.close()
            theirs.close()

    def test_body_trickle_stalls_out_under_the_budget(self):
        from repro.proto.httpwire import read_body

        ours, theirs, stop = self._trickler(b"b" * 256)
        try:
            with pytest.raises(StallError, match="budget"):
                read_body(
                    ours,
                    b"",
                    256,
                    timeout=1.0,
                    overall_timeout=0.3,
                )
        finally:
            stop.set()
            ours.close()
            theirs.close()

    def test_silent_peer_under_a_tighter_budget_names_the_budget(self):
        # The budget (0.1s) is shorter than the per-recv timeout (1s),
        # so the recv that expires was cut to the budget: the error
        # must name the budget, not a silent peer.
        ours, theirs = socket.socketpair()
        try:
            with pytest.raises(StallError, match="budget"):
                read_until_blank_line(
                    ours, timeout=1.0, overall_timeout=0.1
                )
        finally:
            ours.close()
            theirs.close()

    def test_silent_peer_under_a_looser_budget_names_the_peer(self):
        # Inverse control: the per-recv timeout binds, so the peer's
        # silence is what the error reports.
        ours, theirs = socket.socketpair()
        try:
            with pytest.raises(StallError, match="peer sent nothing"):
                read_until_blank_line(
                    ours, timeout=0.1, overall_timeout=5.0
                )
        finally:
            ours.close()
            theirs.close()

    def test_proxy_stalls_out_a_trickling_lan_client(self, origin):
        # One header byte every 50 ms for ~3 s never trips the 0.2 s
        # idle timeout; only the proxy's overall head budget (twice the
        # idle timeout) cuts the client off, long before the trickle
        # ends on its own.
        proxy = MobileProxy(
            origin.address, name="ph-loris", idle_timeout=0.2
        ).start()
        payload = b"POST /x HTTP/1.1\r\nX: " + b"a" * 39
        sock = socket.create_connection(proxy.address, timeout=5.0)
        stop = threading.Event()

        def drip():
            with contextlib.suppress(OSError):
                for i in range(len(payload)):
                    sock.sendall(payload[i : i + 1])
                    if stop.wait(0.05):
                        return

        writer = threading.Thread(target=drip, daemon=True)
        started = time.monotonic()
        writer.start()
        try:
            try:
                status, _, _ = read_response(sock, timeout=5.0)
            except (WireError, OSError):
                status = None  # closed without an answer
            elapsed = time.monotonic() - started
        finally:
            stop.set()
            writer.join(timeout=5.0)
            sock.close()
            proxy.stop()
        assert elapsed < 1.5
        assert status in (400, None)
        log = proxy.degradations
        assert log.of_kind("bad-peer") or log.of_kind("stall")

    def test_no_budget_keeps_the_per_recv_semantics(self):
        # A trickled but terminating head still parses when no overall
        # budget is set (the pre-existing behaviour).
        stream = FakeSocket(b"HTTP/1.1 200 OK\r\n\r\n", chunk=3)
        head, leftover = read_until_blank_line(stream)
        assert head.endswith(b"\r\n\r\n")
        assert leftover == b""


# ---------------------------------------------------------------------------
# Stalling peers: StallError, not a hang
# ---------------------------------------------------------------------------


class TestStallingPeer:
    def test_read_response_raises_stall_error(self):
        with silent_server() as address:
            sock = socket.create_connection(address, timeout=5.0)
            try:
                with pytest.raises(StallError):
                    read_response(sock, timeout=0.3)
            finally:
                sock.close()

    def test_proxy_times_out_single_transfer_and_keeps_serving(self):
        # The origin accepts the proxy's connection and never answers:
        # each LAN request costs one 504, one structured stall event
        # (the canonical kind — the proxy's old peer-stall spelling is
        # an alias now), and the proxy remains responsive for the next.
        with silent_server() as stalled_origin:
            proxy = MobileProxy(
                stalled_origin, name="ph-stall", recv_timeout=0.3
            ).start()
            try:
                for _ in range(2):  # a second round proves no hang
                    sock = socket.create_connection(proxy.address, timeout=5.0)
                    try:
                        sock.sendall(
                            render_request("GET", "/x", "origin")
                        )
                        status, _, _ = read_response(sock, timeout=5.0)
                    finally:
                        sock.close()
                    assert status == 504
            finally:
                proxy.stop()
            stalls = proxy.degradations.of_kind("stall")
            assert len(stalls) == 2
            assert all(
                isinstance(event, DegradationEvent) for event in stalls
            )
            assert stalls[0].path_name == "ph-stall"

    def test_client_degrades_stalled_path_and_finishes_on_live_one(
        self, origin
    ):
        # Two paths: one healthy proxy, one peer that accepts and goes
        # silent. The transaction must complete on the live path and the
        # dead one must cost exactly one stall event — the single
        # timed-out transfer the acceptance criteria allow.
        proxy = MobileProxy(origin.address, name="gateway").start()
        try:
            with silent_server() as stalled:
                client = PrototypeClient(
                    [("gateway", proxy.address), ("stalled", stalled)],
                    recv_timeout=0.5,
                )
                report = client.run_download(
                    segment_transaction(), make_policy("GRD"), timeout=30.0
                )
        finally:
            proxy.stop()
        assert len(report.records) == 4
        assert report.bytes_by_path["gateway"] > 0
        stalls = client.degradations.of_kind("stall")
        assert len(stalls) == 1
        assert stalls[0].path_name == "stalled"

    def test_client_fails_cleanly_when_every_path_stalls(self):
        with silent_server() as stalled:
            client = PrototypeClient(
                [("only", stalled)], recv_timeout=0.3
            )
            with pytest.raises(RuntimeError, match="transfer failed"):
                client.run_download(
                    Transaction([TransferItem("/x", 10.0)]),
                    make_policy("GRD"),
                    timeout=10.0,
                )
            assert len(client.degradations.of_kind("stall")) == 1


# ---------------------------------------------------------------------------
# Bad peers: one connection degraded, the server keeps serving
# ---------------------------------------------------------------------------


class TestBadPeer:
    def test_malformed_request_gets_400_and_proxy_survives(self, origin):
        proxy = MobileProxy(origin.address, name="ph").start()
        try:
            # A request whose header section can never parse.
            bad = socket.create_connection(proxy.address, timeout=5.0)
            try:
                bad.sendall(b"GET / HTTP/1.1\r\nBad Name: x\r\n\r\n")
                status, _, _ = read_response(bad, timeout=5.0)
            finally:
                bad.close()
            assert status == 400
            assert len(proxy.degradations.of_kind("bad-peer")) == 1
            # The proxy still serves a well-formed request afterwards.
            good = socket.create_connection(proxy.address, timeout=5.0)
            try:
                good.sendall(
                    render_request("GET", "/tiny/Q/index.m3u8", "origin")
                )
                status, _, body = read_response(good, timeout=5.0)
            finally:
                good.close()
            assert status == 200
            assert body.startswith(b"#EXTM3U")
        finally:
            proxy.stop()

    def test_malformed_content_length_kills_no_origin_worker(self, origin):
        # A framing lie is a WireError the worker handles: the origin
        # drops the connection, and no exception escapes its thread.
        raised = []
        previous_hook = threading.excepthook
        threading.excepthook = raised.append
        try:
            before = set(threading.enumerate())
            for value in ("abc", "-5"):
                with socket.create_connection(
                    origin.address, timeout=5.0
                ) as sock:
                    sock.sendall(
                        b"POST /p HTTP/1.1\r\nContent-Length: "
                        + value.encode("ascii")
                        + b"\r\n\r\n"
                    )
                    assert sock.recv(1024) == b""
            # A thread's excepthook runs before it leaves enumerate().
            for thread in set(threading.enumerate()) - before:
                thread.join(timeout=5.0)
        finally:
            threading.excepthook = previous_hook
        assert raised == []
        assert origin.uploads == {}

    def test_unreachable_origin_gets_502(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_address = probe.getsockname()
        probe.close()
        proxy = MobileProxy(dead_address, name="ph").start()
        try:
            sock = socket.create_connection(proxy.address, timeout=5.0)
            try:
                status, _, _ = read_response(sock, timeout=5.0)
            finally:
                sock.close()
            assert status == 502
            assert len(proxy.degradations.of_kind("peer-unreachable")) == 1
        finally:
            proxy.stop()


# ---------------------------------------------------------------------------
# DegradationLog: the structured record both components share
# ---------------------------------------------------------------------------


class TestDegradationLog:
    def test_record_returns_the_runner_event_type(self):
        log = DegradationLog()
        event = log.record(
            kind="stall", time=1.5, path_name="p", item_label="/x",
            detail="d",
        )
        assert isinstance(event, DegradationEvent)
        assert log.events == (event,)
        assert len(log) == 1

    def test_of_kind_filters(self):
        log = DegradationLog()
        log.record(kind="stall", time=0.1)
        log.record(kind="bad-peer", time=0.2)
        log.record(kind="stall", time=0.3)
        assert [e.time for e in log.of_kind("stall")] == [0.1, 0.3]

    def test_thread_safe_appends(self):
        log = DegradationLog()
        threads = [
            threading.Thread(
                target=lambda: [
                    log.record(kind="stall", time=0.0) for _ in range(100)
                ]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(log) == 800
