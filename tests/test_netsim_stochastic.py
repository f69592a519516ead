"""Seeded capacity processes."""

import math

import numpy as np
import pytest

from repro.netsim import stochastic
from repro.netsim.stochastic import (
    ConstantProcess,
    LognormalProcess,
    reset_draw_memo,
)


def _draw(seed, index, sigma):
    """The oracle: one fresh generator, one normal draw."""
    return stochastic._interval_rng(seed, index).normal(0.0, sigma)


class TestConstantProcess:
    def test_factor_is_constant(self):
        process = ConstantProcess(0.7)
        assert process.factor_at(0.0) == process.factor_at(1e6) == 0.7

    def test_never_changes(self):
        assert ConstantProcess().next_change_after(5.0) == math.inf


class TestLognormalProcess:
    def test_deterministic_per_interval(self):
        a = LognormalProcess(seed=3, interval=1.0, sigma=0.3)
        b = LognormalProcess(seed=3, interval=1.0, sigma=0.3)
        assert a.factor_at(7.5) == b.factor_at(7.5)

    def test_lazy_out_of_order_evaluation(self):
        a = LognormalProcess(seed=3, interval=1.0, sigma=0.3)
        late = a.factor_at(99.0)
        early = a.factor_at(1.0)
        b = LognormalProcess(seed=3, interval=1.0, sigma=0.3)
        assert b.factor_at(1.0) == early
        assert b.factor_at(99.0) == late

    def test_respects_clipping(self):
        process = LognormalProcess(
            seed=1, interval=1.0, sigma=2.0, floor=0.5, ceiling=1.5
        )
        factors = [process.factor_for_interval(i) for i in range(200)]
        assert all(0.5 <= f <= 1.5 for f in factors)

    def test_sigma_zero_is_identity(self):
        process = LognormalProcess(seed=1, interval=1.0, sigma=0.0)
        assert process.factor_at(3.3) == 1.0

    def test_sigma_zero_is_still_clipped(self):
        raised = LognormalProcess(
            seed=1, interval=1.0, sigma=0.0, floor=1.5, ceiling=2.0
        )
        lowered = LognormalProcess(
            seed=1, interval=1.0, sigma=0.0, floor=0.1, ceiling=0.5
        )
        assert raised.factor_at(3.3) == 1.5
        assert lowered.factor_at(3.3) == 0.5

    def test_negative_index_clamps(self):
        process = LognormalProcess(seed=4, interval=1.0, sigma=0.3)
        first = process.factor_for_interval(0)
        assert process.factor_for_interval(-1) == first

    def test_interval_boundaries(self):
        process = LognormalProcess(seed=5, interval=4.0, sigma=0.3)
        assert process.next_change_after(0.0) == 4.0
        assert process.next_change_after(3.999) == 4.0
        assert process.next_change_after(4.0) == 8.0

    def test_roughly_unit_median(self):
        process = LognormalProcess(seed=2, interval=1.0, sigma=0.3)
        factors = sorted(process.factor_for_interval(i) for i in range(500))
        median = factors[len(factors) // 2]
        assert 0.85 < median < 1.15

    def test_floor_above_ceiling_rejected(self):
        with pytest.raises(ValueError):
            LognormalProcess(seed=1, interval=1.0, sigma=0.1, floor=2.0, ceiling=1.0)


class TestDrawMemo:
    def test_second_lognormal_instance_builds_no_generators(self, generators):
        first = LognormalProcess(seed=11, interval=1.0, sigma=0.3)
        values = [first.factor_for_interval(k) for k in range(20)]
        assert len(generators) == 24  # three blocks of eight
        second = LognormalProcess(seed=11, interval=1.0, sigma=0.3)
        assert [second.factor_for_interval(k) for k in range(20)] == values
        assert len(generators) == 24

    def test_reset_restarts_the_count(self, generators):
        LognormalProcess(seed=11, interval=1.0, sigma=0.3).factor_at(5.0)
        assert len(generators) == 8
        reset_draw_memo()
        LognormalProcess(seed=11, interval=1.0, sigma=0.3).factor_at(5.0)
        assert len(generators) == 16
        assert generators[:8] == generators[8:]

    def test_distinct_sigma_is_a_distinct_key(self, generators):
        LognormalProcess(seed=11, interval=1.0, sigma=0.3).factor_at(0.0)
        LognormalProcess(seed=11, interval=1.0, sigma=0.2).factor_at(0.0)
        assert len(generators) == 16

    def test_memo_is_bounded(self):
        info = stochastic._draw_block.cache_info()
        assert info.maxsize == stochastic._MEMO_BLOCKS

    def test_shared_blocks_are_read_only(self):
        block = stochastic._draw_block(11, 0, 0.3)
        with pytest.raises(ValueError):
            block[0] = 0.0

    def test_lognormal_matches_per_interval_oracle(self):
        sigma, floor, ceiling = 0.6, 0.3, 1.3
        process = LognormalProcess(
            seed=21, interval=1.0, sigma=sigma, floor=floor, ceiling=ceiling
        )
        for k in (37, 3, 0, 8, 15, 16, 63):
            expected = np.clip(np.exp(_draw(21, k, sigma)), floor, ceiling)
            assert process.factor_for_interval(k) == expected
