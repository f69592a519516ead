"""The listener skeleton every loopback server here shares.

:class:`~repro.proto.origin.LoopbackOrigin`,
:class:`~repro.proto.mobileproxy.MobileProxy` and
:class:`~repro.service.server.OnloadService` are all the same kind of
server: a TCP socket on 127.0.0.1, an accept loop that ticks so a
``stop()`` racing ``accept()`` never strands it, and one daemon thread
per accepted connection. :class:`Listener` owns that protocol once;
a server subclasses it and implements ``_serve_connection``.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time
from typing import Tuple, TypeVar

#: The accept loop wakes at this cadence to re-check its running flag,
#: so a stop() that races the accept call never strands the thread.
ACCEPT_TICK_S = 0.5

#: Pending-connection queue of every listening socket.
LISTEN_BACKLOG = 128

_L = TypeVar("_L", bound="Listener")


class Listener:
    """A thread-per-connection TCP server on an ephemeral loopback port.

    The port is bound at construction, so :attr:`address` is known
    before :meth:`start`. Each accepted connection runs
    ``self._serve_connection(conn)`` on its own daemon thread; the
    handler is looked up on ``self`` at every accept, never captured
    once, so a method patched onto the class after ``start()`` (as the
    benchmark's probes do) still serves the next connection.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._started_at = time.monotonic()
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind(("127.0.0.1", 0))
        self._server.listen(LISTEN_BACKLOG)
        self._server.settimeout(ACCEPT_TICK_S)
        self.host, self.port = self._server.getsockname()
        self._running = False

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) the listener accepts on."""
        return (self.host, self.port)

    def _now(self) -> float:
        """Seconds since construction (journal/degradation stamps)."""
        return time.monotonic() - self._started_at

    def start(self: _L) -> _L:
        """Start accepting connections on a daemon thread."""
        self._running = True
        threading.Thread(
            target=self._accept_loop, name=f"{self.name}-accept", daemon=True
        ).start()
        return self

    def stop(self) -> object:
        """Stop accepting and release the port.

        Servers with a richer shutdown override this and may return a
        report of it; the plain listener returns ``None``.
        """
        self._close()
        return None

    def _close(self) -> None:
        """Refuse new connections now; connections already accepted
        keep their threads."""
        self._running = False
        # shutdown() before close(): the accept thread's pending poll
        # holds the socket open until its tick ends, and a connect in
        # that window would otherwise be queued and then reset.
        with contextlib.suppress(OSError):
            self._server.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._server.close()

    def __enter__(self: _L) -> _L:
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _accept_loop(self) -> None:
        while self._running:
            try:
                conn, _ = self._server.accept()
            except socket.timeout:
                continue  # tick: re-check the running flag
            except OSError:
                return
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        """Serve one accepted connection; the subclass owns ``conn``."""
        raise NotImplementedError
