"""Open-loop load generator for the ``relay`` workload, run as its own process.

The relay workload starts the service in the benchmark process and this
script in a second one, so the generator's threads never share the
service's interpreter lock. The schedule is
``repro.service.loadgen.build_load_plan(seed, ...)``: Poisson arrivals at
``--rate`` flows/s and lognormal bodies around 16 KiB, cut to the first
``--flows`` flows.

At most ``--workers`` threads send, so at most that many connections are
in flight. A worker takes the next flow, waits for its due time if it is
early, and sends it at once if it is late. Latency is timed from the
due time, so a flow that waited for a free worker pays that wait;
``late_s`` is how long after its due time it was sent.

Usage::

    python3 perfbench/relay_client.py --port 8080 --seed 0 --rate 150 \\
        --flows 1000 --workers 2 --tag r150 [--cpu 1]

It prints one JSON object: per-flow ``[index, status, latency_s, late_s,
body_bytes, path, offset_s]`` rows plus the peak worker and in-flight
counts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import socket
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.proto import httpwire
from repro.service.loadgen import LoadFlow, build_load_plan

#: Generous per-flow socket timeout: a wedged relay costs a bounded wait.
FLOW_TIMEOUT_S = 10.0


def plan_flows(seed: int, rate: float, flows: int) -> Tuple[LoadFlow, ...]:
    """The first ``flows`` flows of the seeded schedule at ``rate``/s."""
    # Long enough that the Poisson schedule holds ``flows`` arrivals
    # with overwhelming probability; the tail is cut off.
    duration = 2.0 * flows / rate + 10.0
    plan = build_load_plan(seed, duration_s=duration, rate_per_s=rate)
    if len(plan.flows) < flows:
        raise ValueError(
            f"plan holds {len(plan.flows)} flows, wanted {flows}"
        )
    return plan.flows[:flows]


def flow_path(tag: str, index: int) -> str:
    """Upload path of one flow; unique across the ladder's steps."""
    return f"/bench/{tag}/flow-{index}"


class _Gauge:
    """Thread-safe current/peak counter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.current = 0
        self.peak = 0

    def add(self, delta: int) -> None:
        with self._lock:
            self.current += delta
            self.peak = max(self.peak, self.current)


def send(
    address: Tuple[str, int], path: str, body_bytes: int
) -> int:
    """One upload through the relay; returns the HTTP status (0: failed)."""
    try:
        sock = socket.create_connection(address, timeout=FLOW_TIMEOUT_S)
    except OSError:
        return 0
    try:
        sock.sendall(
            httpwire.render_request(
                "POST",
                path,
                "origin",
                headers={httpwire.DEADLINE_HEADER: f"{FLOW_TIMEOUT_S:.3f}"},
                body=b"u" * body_bytes,
            )
        )
        status, _, _ = httpwire.read_response(sock, timeout=FLOW_TIMEOUT_S)
        return status
    except (httpwire.WireError, OSError):
        return 0
    finally:
        with contextlib.suppress(OSError):
            sock.close()


def drive(
    flows: Sequence[LoadFlow],
    address: Tuple[str, int],
    workers: int,
    tag: str,
) -> Dict[str, Any]:
    """Fire ``flows`` open-loop with ``workers`` threads; blocks until done."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    rows: List[Optional[List[Any]]] = [None] * len(flows)
    next_index = [0]
    index_lock = threading.Lock()
    in_flight = _Gauge()
    running = _Gauge()
    started = time.monotonic() + 0.05

    def worker() -> None:
        running.add(1)
        try:
            while True:
                with index_lock:
                    index = next_index[0]
                    if index >= len(flows):
                        return
                    next_index[0] += 1
                flow = flows[index]
                due = started + flow.offset_s
                wait = due - time.monotonic()
                if wait > 0.0:
                    time.sleep(wait)
                sent = time.monotonic()
                in_flight.add(1)
                path = flow_path(tag, index)
                status = send(address, path, flow.body_bytes)
                in_flight.add(-1)
                done = time.monotonic()
                rows[index] = [
                    index,
                    status,
                    done - due,
                    max(0.0, sent - due),
                    flow.body_bytes,
                    path,
                    flow.offset_s,
                ]
        finally:
            running.add(-1)

    threads = [
        threading.Thread(target=worker, name=f"relay-client-{n}")
        for n in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "tag": tag,
        "rows": rows,
        "span_s": flows[-1].offset_s if flows else 0.0,
        "elapsed_s": time.monotonic() - started,
        "peak_workers": running.peak,
        "peak_in_flight": in_flight.peak,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--flows", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--tag", required=True)
    parser.add_argument(
        "--cpu", type=int, default=None, help="pin the generator to a CPU"
    )
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    flows = plan_flows(args.seed, args.rate, args.flows)
    result = drive(flows, ("127.0.0.1", args.port), args.workers, args.tag)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
