"""Tests of the benchmark's own machinery (not of the program).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import relay_client  # noqa: E402
import workloads  # noqa: E402
from tracer import Patches, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def test_install_then_restore_puts_every_original_back() -> None:
    from repro.netsim.fluid import FluidNetwork

    step = vars(FluidNetwork)["step"]
    patches = Patches()
    layers.install(Tracer(), patches)
    swapped = list(patches._undo)
    assert vars(FluidNetwork)["step"] is not step
    patches.restore()
    assert swapped, "install wrapped nothing"
    for owner, attr, original in swapped:
        assert vars(owner)[attr] is original, (owner, attr)
    assert vars(FluidNetwork)["step"] is step


def test_patches_restore_when_the_body_raises() -> None:
    class Owner:
        def work(self) -> int:
            return 1

        @classmethod
        def make(cls) -> str:
            return cls.__name__

    work, make = vars(Owner)["work"], vars(Owner)["make"]
    tracer = Tracer()
    try:
        with Patches() as patches:
            patches.wrap(tracer, Owner, "work", "t.work")
            patches.wrap(tracer, Owner, "make", "t.make")
            assert Owner().work() == 1 and Owner.make() == "Owner"
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert vars(Owner)["work"] is work and vars(Owner)["make"] is make
    assert tracer.take()["t.work"].calls == 1


def test_wrapping_an_inherited_attribute_is_refused() -> None:
    class Base:
        def run(self) -> None:
            pass

    class Child(Base):
        pass

    try:
        Patches().wrap(Tracer(), Child, "run", "x")
    except AttributeError:
        return
    raise AssertionError("wrapped an attribute Child does not define")


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


def test_self_time_subtracts_child_spans() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.enter("outer")
    clock.now = 1.0
    inner = tracer.enter("inner")
    clock.now = 3.0
    tracer.exit(inner)
    clock.now = 4.0
    tracer.exit(outer)
    stats = tracer.take()
    assert stats["outer"].total_s == 4.0
    assert stats["outer"].self_s == 2.0
    assert stats["inner"].self_s == 2.0
    assert tracer.spans[0][1] == tracer.spans[1][0]  # inner's parent


def test_same_name_nesting_counts_once() -> None:
    tracer = Tracer(clock=FakeClock())
    first = tracer.enter("decide")
    second = tracer.enter("decide")
    tracer.exit(second)
    tracer.exit(first)
    stats = tracer.take()["decide"]
    assert (stats.calls, stats.outer_calls) == (2, 1)


def test_spans_are_thread_local() -> None:
    tracer = Tracer()

    def work() -> None:
        for _ in range(200):
            tracer.exit(tracer.enter("leaf"))

    threads = [threading.Thread(target=work) for _ in range(4)]
    root = tracer.enter("root")
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    tracer.exit(root)
    stats = tracer.take()
    assert stats["leaf"].calls == 800
    # Other threads' spans are not the root's children.
    assert stats["root"].self_s == stats["root"].total_s


# ----------------------------------------------------------------------
# Metric names and metadata
# ----------------------------------------------------------------------


def test_metric_names_are_well_formed_and_unique() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    metrics = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(metrics)) == len(metrics)


def test_benchmark_json_lists_every_per_layer_metric() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == list(layers.PER_LAYER)
    moves = workloads.SPEC["per_layer_moves"]
    assert set(moves) == {name for name, _, _ in layers.PER_LAYER}


def test_complete_rejects_undeclared_metrics() -> None:
    try:
        layers.complete({"netsim.bogus": 1.0})
    except KeyError:
        return
    raise AssertionError("undeclared metric accepted")


# ----------------------------------------------------------------------
# Relay generator
# ----------------------------------------------------------------------


def test_relay_plan_is_a_function_of_the_seed() -> None:
    first = relay_client.plan_flows(7, 150.0, 300)
    assert first == relay_client.plan_flows(7, 150.0, 300)
    assert first != relay_client.plan_flows(8, 150.0, 300)
    assert len(first) == 300


def test_generator_never_exceeds_its_workers() -> None:
    from repro.proto import LoopbackOrigin

    flows = relay_client.plan_flows(3, 5000.0, 60)
    with LoopbackOrigin() as origin:
        before = threading.active_count()
        result = relay_client.drive(flows, origin.address, 2, "bound")
        uploads = dict(origin.uploads)
    assert result["peak_workers"] <= 2
    assert result["peak_in_flight"] <= 2
    assert threading.active_count() <= before + 2
    for _, status, _, _, body_bytes, path, _ in result["rows"]:
        assert status == 200 and uploads[path] == body_bytes


def test_knee_is_the_last_passing_ladder_step() -> None:
    def block(rate: int, p99: float) -> workloads.Block:
        return workloads.Block(
            rate, 0, [p99] * 100, [0.0] * 100, 100, 0, 0, 0, 1.0
        )

    limit = workloads.P99_LIMIT_MS
    passing = block(300, limit / 10)
    failing = block(450, limit * 10)
    assert workloads.knee([block(150, 1.0), passing, failing]) == 300.0
    assert workloads.knee([block(150, 1.0), passing]) == 300.0
    assert workloads.knee([block(150, limit * 2)]) == 0.0


def test_nearest_rank() -> None:
    values = [float(v) for v in range(1, 101)]
    assert layers.nearest_rank(values, 50) == 50.0
    assert layers.nearest_rank(values, 99) == 99.0
    assert layers.nearest_rank([4.0], 99) == 4.0
    assert layers.nearest_rank([], 99) == 0.0
