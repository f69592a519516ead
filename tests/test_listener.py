"""The listener skeleton shared by the origin, the phone proxy and the
onload service: address, start/stop, the context manager, and the
per-accept handler lookup the benchmark's probes rely on."""

import socket

import pytest

from repro.proto import LoopbackOrigin, MobileProxy, httpwire
from repro.service import OnloadService, ServiceLeg

BUILDERS = {
    "origin": lambda upstream: LoopbackOrigin(),
    "proxy": lambda upstream: MobileProxy(upstream.address, name="ph"),
    "service": lambda upstream: OnloadService(
        [ServiceLeg("adsl", upstream.address)], obs=None
    ),
}


@pytest.fixture
def upstream():
    with LoopbackOrigin() as origin:
        yield origin


def _post(address):
    """One upload; returns the response status."""
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(
            httpwire.render_request("POST", "/photo", "origin", body=b"jpg")
        )
        return httpwire.read_response(sock, timeout=5.0)[0]


def _refused(address):
    """Whether a fresh connect to ``address`` is refused."""
    try:
        socket.create_connection(address, timeout=5.0).close()
    except ConnectionRefusedError:
        return True
    return False


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_serves_until_stopped(kind, upstream):
    listener = BUILDERS[kind](upstream)
    assert listener.address == (listener.host, listener.port)
    listener.start()
    try:
        assert _post(listener.address) == 200
    finally:
        listener.stop()
    assert _refused(listener.address)

    with BUILDERS[kind](upstream) as listener:
        assert _post(listener.address) == 200
    assert _refused(listener.address)


def test_service_looks_its_flow_handler_up_per_accept(upstream, monkeypatch):
    served = []
    original = OnloadService._serve_flow

    def probe(self, client, flow_id):
        served.append(flow_id)
        original(self, client, flow_id)

    with BUILDERS["service"](upstream) as service:
        # Patched on the class after start(), as perfbench/layers.py
        # does: the next connection must still reach the patch.
        monkeypatch.setattr(OnloadService, "_serve_flow", probe)
        assert _post(service.address) == 200
    assert served == ["onload-0"]
