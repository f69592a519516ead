"""Ecdf, violin summaries, the reduction helper."""

import numpy as np
import pytest

from repro.analysis.stats import (
    Ecdf,
    reduction_percent,
    summarize_violin,
)


class TestEcdf:
    def test_fraction_below_is_strict(self):
        ecdf = Ecdf([1.0, 2.0, 2.0, 3.0])
        assert ecdf.fraction_below(2.0) == 0.25
        assert ecdf.fraction_below(2.0001) == 0.75

    def test_fraction_at_least(self):
        ecdf = Ecdf([1.0, 2.0, 3.0, 4.0])
        assert ecdf.fraction_at_least(3.0) == 0.5

    def test_quantiles(self):
        ecdf = Ecdf(list(range(101)))
        assert ecdf.quantile(0.5) == pytest.approx(50.0)
        assert ecdf.quantile(0.0) == 0.0
        assert ecdf.quantile(1.0) == 100.0

    def test_points_monotone(self):
        ecdf = Ecdf([3.0, 1.0, 2.0])
        xs, ys = ecdf.points()
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Ecdf([])
        with pytest.raises(ValueError):
            Ecdf([1.0]).quantile(1.5)


class TestViolin:
    def test_quartiles(self):
        data = list(np.linspace(0, 100, 101))
        violin = summarize_violin(data)
        assert violin.median == pytest.approx(50.0)
        assert violin.q1 == pytest.approx(25.0)
        assert violin.q3 == pytest.approx(75.0)
        assert violin.minimum == 0.0 and violin.maximum == 100.0
        assert violin.n == 101

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(1)
        data = rng.normal(0, 1, 1000)
        violin = summarize_violin(data, bins=20)
        centers = [c for c, _ in violin.density]
        widths = centers[1] - centers[0]
        total = sum(d for _, d in violin.density) * widths
        assert total == pytest.approx(1.0, rel=0.01)

    def test_single_sample(self):
        violin = summarize_violin([5.0])
        assert violin.stdev == 0.0
        assert violin.mean == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            summarize_violin([])
        with pytest.raises(ValueError):
            summarize_violin([1.0], bins=0)


class TestSpeedupHelpers:
    def test_reduction_percent(self):
        assert reduction_percent(100.0, 28.0) == pytest.approx(72.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            reduction_percent(0.0, 1.0)
