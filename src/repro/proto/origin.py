"""The loopback origin server.

A real threaded TCP server on 127.0.0.1 hosting a
:class:`~repro.web.hls.VideoAsset`'s playlists and segments (segment
payloads are deterministic pseudo-random bytes of the correct size) and
accepting multipart photo uploads. Equivalent to the paper's dedicated
web server with caching disabled.
"""

from __future__ import annotations

import contextlib
import socket
import threading
from typing import Dict

from repro.proto import httpwire
from repro.proto.listener import Listener
from repro.web.hls import VideoAsset, render_m3u8


def _segment_payload(uri: str, size: int) -> bytes:
    """Deterministic pseudo-content for a segment (repeating tag)."""
    tag = (uri.strip("/").replace("/", "_") + "|").encode("ascii")
    reps = size // len(tag) + 1
    return (tag * reps)[:size]


class LoopbackOrigin(Listener):
    """Threaded HTTP origin bound to 127.0.0.1 on an ephemeral port."""

    def __init__(self) -> None:
        super().__init__("origin")
        self._playlists: Dict[str, bytes] = {}
        self._segments: Dict[str, int] = {}
        self.uploads: Dict[str, int] = {}
        self._uploads_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Content
    # ------------------------------------------------------------------
    def host_video(self, video: VideoAsset) -> None:
        """Publish a video's playlists and segments."""
        for playlist in video.playlists.values():
            self._playlists[playlist.playlist_uri] = render_m3u8(
                playlist
            ).encode("utf-8")
            for segment in playlist.segments:
                self._segments[segment.uri] = int(round(segment.size_bytes))

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        leftover = b""
        try:
            # Idle-bounded like every other server socket here (RL012):
            # a peer that connects and goes silent is reclaimed instead
            # of pinning a thread forever.
            conn.settimeout(httpwire.DEFAULT_IDLE_TIMEOUT)
            while True:
                head, leftover = httpwire.read_until_blank_line(
                    conn, leftover
                )
                first, headers = httpwire.parse_head(head)
                method, path, _ = (first.split(" ", 2) + ["", ""])[:3]
                length = httpwire.parse_content_length(headers)
                body = httpwire.read_body(conn, leftover, length)
                leftover = b""
                conn.sendall(self._respond(method, path, body))
        except (httpwire.WireError, OSError):
            pass
        finally:
            with contextlib.suppress(OSError):
                conn.close()

    def _respond(self, method: str, path: str, body: bytes) -> bytes:
        path = path.split("?", 1)[0]
        if method == "POST":
            # Idempotent store keyed by path: the 3GOL scheduler may
            # duplicate an upload in its endgame (at-least-once
            # delivery), and storing a named photo twice must be a no-op
            # — the same property real photo services provide.
            with self._uploads_lock:
                self.uploads[path] = len(body)
            return httpwire.render_response(200, "OK", b"stored")
        if method != "GET":
            return httpwire.render_response(405, "Method Not Allowed")
        playlist = self._playlists.get(path)
        if playlist is not None:
            return httpwire.render_response(
                200, "OK", playlist,
                content_type="application/vnd.apple.mpegurl",
            )
        size = self._segments.get(path)
        if size is not None:
            return httpwire.render_response(
                200, "OK", _segment_payload(path, size), content_type="video/mp2t"
            )
        return httpwire.render_response(404, "Not Found")
