"""Stochastic capacity processes.

Real HSPA channel throughput fluctuates on sub-second timescales with radio
conditions and on hour timescales with cell load (§3 of the paper observes
per-device throughput varying between 0.65 and 1.42 Mbps with the hour of
day). We model a link's available capacity as a *piecewise-constant*
stochastic process: every ``interval`` seconds a new multiplicative factor
is drawn. The factor for interval ``k`` is a pure function of
``(seed, k)``, so the process can be evaluated lazily, out of order, and is
reproducible regardless of how the simulator happens to step through time.

The model is :class:`LognormalProcess`: i.i.d. lognormal shadowing
around 1.0 for fast fading / scheduler-share noise
(:class:`ConstantProcess` is its degenerate fixed-factor twin). It reads
its per-interval normal draws from one bounded module-level memo,
:func:`_draw_block`, so links rebuilt from the same derived seeds
(repetitions, policy sweeps, pre-buffer levels) share one set of draws.
:func:`reset_draw_memo` empties it; the experiment runner does so before
every experiment.
"""

from __future__ import annotations

import functools
import math
from typing import Dict

import numpy as np
from numpy.typing import NDArray

from repro.util.validate import check_non_negative, check_positive


def _interval_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic generator for interval ``index`` of stream ``seed``."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    )


#: Intervals per memo block. The stepper consumes fading intervals densely
#: (it stops at every capacity-change boundary), so small blocks amortize
#: the memo lookup and the ``exp``/clip post-processing without sampling
#: far past the simulated horizon.
_SAMPLE_BLOCK = 8

#: Blocks the draw memo holds before it evicts the least recently used.
#: One quick-profile experiment touches at most a few hundred blocks;
#: the bound caps a long full-size run at a few megabytes.
_MEMO_BLOCKS = 16384


@functools.lru_cache(maxsize=_MEMO_BLOCKS)
def _draw_block(seed: int, start: int, sigma: float) -> NDArray[np.float64]:
    """Normal(0, ``sigma``) draws for intervals ``start .. start+B-1``.

    Interval ``k``'s draw comes from its own ``_interval_rng(seed, k)``
    generator (the derivation the traces pin), so a block holds exactly
    the values the per-interval draws would give. The array is shared by
    every caller with the same key and is therefore read-only.
    """
    draws = np.empty(_SAMPLE_BLOCK)
    for offset in range(_SAMPLE_BLOCK):
        draws[offset] = _interval_rng(seed, start + offset).normal(0.0, sigma)
    draws.flags.writeable = False
    return draws


def reset_draw_memo() -> None:
    """Empty the shared draw memo (values are unaffected, only cost)."""
    _draw_block.cache_clear()


class CapacityProcess:
    """Interface: a multiplicative capacity factor per time interval."""

    def __init__(self, seed: int, interval: float) -> None:
        self.seed = int(seed)
        self.interval = check_positive("interval", interval)

    def interval_index(self, time: float) -> int:
        """Index of the interval containing ``time`` (t < 0 clamps to 0)."""
        if time < 0.0:
            return 0
        return int(math.floor(time / self.interval))

    def next_change_after(self, time: float) -> float:
        """Start time of the interval after the one containing ``time``."""
        return (self.interval_index(time) + 1) * self.interval

    def factor_for_interval(self, index: int) -> float:
        raise NotImplementedError

    def factor_at(self, time: float) -> float:
        """Multiplicative factor in effect at ``time``."""
        return self.factor_for_interval(self.interval_index(time))


class ConstantProcess(  # repro-lint: disable=RL014  # b: test process
    CapacityProcess
):
    """Degenerate process: the factor is always ``value``."""

    def __init__(self, value: float = 1.0) -> None:
        super().__init__(seed=0, interval=1.0)
        self.value = check_non_negative("value", value)

    def factor_for_interval(self, index: int) -> float:
        return self.value

    def next_change_after(self, time: float) -> float:
        return math.inf


class LognormalProcess(CapacityProcess):
    """I.i.d. lognormal factors with unit median and spread ``sigma``.

    ``sigma`` is the standard deviation of the underlying normal in log
    space: 0.0 degenerates to a constant 1.0 (still clipped); ~0.3
    reproduces the throughput spread the paper's violin plots (Fig 5) show
    within one base station; the factor is clipped to ``[floor, ceiling]``
    to keep the fluid solver away from pathological near-zero capacities.

    Factor ``k`` is ``clip(exp(_interval_rng(seed, k).normal(0, sigma)))``.
    The draws come from the shared memo a block at a time; ``exp`` and
    the clip run on the block array (elementwise float64, bit-identical
    to the scalar forms) and the factors are kept per instance.
    """

    def __init__(
        self,
        seed: int,
        interval: float,
        sigma: float,
        floor: float = 0.05,
        ceiling: float = 4.0,
    ) -> None:
        super().__init__(seed, interval)
        self.sigma = check_non_negative("sigma", sigma)
        self.floor = check_non_negative("floor", floor)
        self.ceiling = check_positive("ceiling", ceiling)
        if self.floor > self.ceiling:
            raise ValueError("floor must not exceed ceiling")
        self._cache: Dict[int, float] = {}

    def factor_for_interval(self, index: int) -> float:
        if self.sigma == 0.0:
            return min(max(1.0, self.floor), self.ceiling)
        if index < 0:
            index = 0
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        return self._sample_block(index)

    def _sample_block(self, index: int) -> float:
        """Sample the whole block containing ``index``; return its factor."""
        start = (index // _SAMPLE_BLOCK) * _SAMPLE_BLOCK
        factors = np.exp(_draw_block(self.seed, start, self.sigma))
        np.clip(factors, self.floor, self.ceiling, out=factors)
        cache = self._cache
        for offset in range(_SAMPLE_BLOCK):
            cache[start + offset] = float(factors[offset])
        return cache[index]

