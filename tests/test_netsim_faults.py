"""The seeded fault processes and their composition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.faults import (
    KIND_FLAP,
    KIND_RADIO,
    FaultSchedule,
    LatencySpikeProcess,
    Outage,
    PathFlapProcess,
    RadioDropProcess,
    WifiDepartureProcess,
)
from repro.netsim.fluid import FluidNetwork


class TestDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda s: PathFlapProcess("p", s, mean_up_s=30, mean_down_s=5),
            lambda s: WifiDepartureProcess("p", s, 600.0, 60.0),
            lambda s: RadioDropProcess("p", s, drops_per_hour=30.0),
            lambda s: LatencySpikeProcess("p", s, spikes_per_minute=2.0),
        ],
    )
    def test_same_seed_same_outages(self, factory):
        assert factory(7).outages(0, 3600) == factory(7).outages(0, 3600)

    def test_different_seeds_differ(self):
        a = PathFlapProcess("p", 1, mean_up_s=30, mean_down_s=5)
        b = PathFlapProcess("p", 2, mean_up_s=30, mean_down_s=5)
        assert a.outages(0, 3600) != b.outages(0, 3600)

    def test_window_consistency(self):
        # A later window must see the same intervals: the renewal chain
        # is anchored at t=0, not at the query start.
        proc = PathFlapProcess("p", 3, mean_up_s=30, mean_down_s=5)
        full = proc.outages(0, 3600)
        late = proc.outages(1800, 3600)
        clipped = [
            Outage(max(o.start, 1800.0), o.end, o.target, o.kind)
            for o in full
            if o.end > 1800.0
        ]
        assert late == clipped


class TestProcessShapes:
    def test_flap_respects_min_down(self):
        proc = PathFlapProcess(
            "p", 0, mean_up_s=10, mean_down_s=0.01, min_down_s=2.0
        )
        for outage in proc.outages(0, 600):
            assert outage.duration >= 2.0

    def test_radio_outage_duration_fixed(self):
        proc = RadioDropProcess("p", 0, drops_per_hour=60.0, outage_s=8.0)
        outages = proc.outages(0, 3600)
        assert outages
        assert all(o.duration == pytest.approx(8.0) for o in outages)

    def test_empty_window(self):
        proc = RadioDropProcess("p", 0, drops_per_hour=60.0)
        assert proc.outages(100.0, 100.0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            PathFlapProcess("", 0, mean_up_s=1, mean_down_s=1)
        with pytest.raises(ValueError):
            PathFlapProcess("p", 0, mean_up_s=0, mean_down_s=1)
        with pytest.raises(ValueError):
            RadioDropProcess("p", 0, drops_per_hour=-1.0)


class TestSchedule:
    def test_merges_overlapping_outages(self):
        class Fixed:
            """Hand-built process: fixed intervals, duck-typed."""

            def __init__(self, target, intervals, kind):
                self.target = target
                self._intervals = intervals
                self.kind = kind

            def outages(self, start, horizon):
                return [
                    Outage(a, b, self.target, self.kind)
                    for a, b in self._intervals
                ]

        schedule = FaultSchedule(
            [
                Fixed("p", [(1.0, 4.0), (10.0, 12.0)], KIND_FLAP),
                Fixed("p", [(3.0, 6.0)], KIND_RADIO),
            ]
        )
        merged = schedule.outages(0, 100)
        assert [(o.start, o.end) for o in merged] == [(1.0, 6.0), (10.0, 12.0)]
        # The earliest contributor's kind wins for the merged interval.
        assert merged[0].kind == KIND_FLAP

    def test_events_alternate_per_target(self):
        schedule = FaultSchedule(
            [PathFlapProcess("p", 5, mean_up_s=20, mean_down_s=5)]
        )
        events = schedule.events(0, 1200)
        assert events
        actions = [e.action for e in events]
        assert actions == ["down", "up"] * (len(events) // 2)

    def test_arm_fires_callbacks_in_order(self):
        network = FluidNetwork()
        schedule = FaultSchedule(
            [PathFlapProcess("p", 5, mean_up_s=20, mean_down_s=5)]
        )
        expected = schedule.events(0, 300)
        seen = []
        armed = schedule.arm(
            network,
            on_down=lambda e: seen.append(e),
            on_up=lambda e: seen.append(e),
            horizon=300,
        )
        network.run(until=300)
        assert armed == expected
        assert seen == expected

    def test_merge_drops_zero_duration_and_joins_adjacent(self):
        from repro.netsim.faults import _merge_outages

        zero = Outage(3.0, 3.0, "p", KIND_FLAP)
        inverted = Outage(9.0, 7.0, "p", KIND_FLAP)
        a = Outage(0.0, 2.0, "p", KIND_FLAP)
        b = Outage(2.0, 4.0, "p", KIND_RADIO)  # exactly adjacent to a
        merged = _merge_outages([zero, inverted, b, a])
        assert [(o.start, o.end) for o in merged] == [(0.0, 4.0)]
        # Earliest contributor's kind survives the adjacency merge.
        assert merged[0].kind == KIND_FLAP


class TestMergeProperties:
    """Hypothesis: _merge_outages is a well-behaved interval union."""

    outage_strategy = st.builds(
        Outage,
        start=st.floats(
            min_value=0.0, max_value=1000.0, allow_nan=False
        ),
        end=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        target=st.just("p"),
        kind=st.sampled_from([KIND_FLAP, KIND_RADIO]),
    )

    @given(st.lists(outage_strategy, max_size=20))
    @settings(max_examples=120, deadline=None)
    def test_merge_is_idempotent(self, outages):
        from repro.netsim.faults import _merge_outages

        once = _merge_outages(outages)
        assert _merge_outages(once) == once

    @given(st.lists(outage_strategy, max_size=20))
    @settings(max_examples=120, deadline=None)
    def test_merge_conserves_total_downtime(self, outages):
        # The union's total measure equals the sweep-line measure of the
        # raw intervals: merging never loses or invents downtime.
        from repro.netsim.faults import _merge_outages

        merged = _merge_outages(outages)
        # Merged output is disjoint and ordered, so its measure is the
        # plain sum of durations.
        for earlier, later in zip(merged, merged[1:]):
            assert earlier.end <= later.start
        merged_total = sum(o.duration for o in merged)
        boundaries = sorted(
            {o.start for o in outages} | {o.end for o in outages}
        )
        swept = sum(
            hi - lo
            for lo, hi in zip(boundaries, boundaries[1:])
            if any(o.start <= lo and o.end >= hi for o in outages)
        )
        assert merged_total == pytest.approx(swept, abs=1e-9)

    @given(st.lists(outage_strategy, max_size=20))
    @settings(max_examples=120, deadline=None)
    def test_merged_intervals_have_positive_duration(self, outages):
        from repro.netsim.faults import _merge_outages

        assert all(o.duration > 0.0 for o in _merge_outages(outages))
