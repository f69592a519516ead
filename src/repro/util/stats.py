"""Streaming statistics helpers.

:class:`RunningStats` implements Welford's online algorithm for mean and
(sample) variance, used wherever the reproduction aggregates per-run
measurements (e.g. the 30-repetition averages of §5) without keeping the raw
samples. :func:`ewma_update` is the exponential-smoothing step the MIN
scheduler uses to estimate per-path bandwidth (§5.1, filter parameter 0.75).
:func:`ordered_sum` adds floats the same way on every Python version.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterable, Optional

from repro.util.validate import check_fraction


class RunningStats:
    """Online mean / variance / min / max over a stream of samples."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def add(self, value: float) -> None:
        """Fold one sample into the statistics."""
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot add NaN to RunningStats")
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)

    def extend(self, values: Iterable[float]) -> None:
        """Fold an iterable of samples into the statistics."""
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples seen so far (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest sample seen; raises if empty."""
        if self._min is None:
            raise ValueError("no samples")
        return self._min

    @property
    def maximum(self) -> float:
        """Largest sample seen; raises if empty."""
        if self._max is None:
            raise ValueError("no samples")
        return self._max

    def __repr__(self) -> str:
        return (
            f"RunningStats(count={self.count}, mean={self.mean:.6g}, "
            f"stdev={self.stdev:.6g})"
        )


def ewma_update(previous: Optional[float], sample: float, alpha: float) -> float:
    """One exponential-smoothing step.

    ``alpha`` is the weight of the *new* sample: the paper sets it to 0.75
    for the MIN scheduler "to maintain a high level of agility". A
    ``previous`` of ``None`` bootstraps the filter with the first sample.
    """
    alpha = check_fraction("alpha", alpha)
    if previous is None:
        return float(sample)
    return alpha * float(sample) + (1.0 - alpha) * float(previous)


def ordered_sum(values: Iterable[float]) -> float:
    """Add ``values`` strictly left to right, starting from integer 0.

    This is what builtin ``sum`` does up to Python 3.11. From 3.12 it
    compensates float additions (Neumaier), which can change the last
    bit; payloads must be byte-identical on every interpreter, so float
    sums whose result reaches an experiment payload use this instead.
    """
    total: float = functools.reduce(operator.add, values, 0)
    return total
