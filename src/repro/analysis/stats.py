"""Distribution statistics for the figures.

The paper presents results as empirical CDFs (Figs. 10, 11a) and violin
plots (Fig. 5). :class:`Ecdf` is an exact empirical CDF with the queries
the reproduction asserts on; :func:`summarize_violin` reduces a sample to
the quantities a violin plot communicates (quartiles plus a density
histogram).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


class Ecdf:
    """Empirical cumulative distribution function of a sample."""

    def __init__(self, samples: Sequence[float]) -> None:
        if not len(samples):
            raise ValueError("need at least one sample")
        self._sorted = sorted(float(s) for s in samples)

    @property
    def n(self) -> int:
        """Sample size."""
        return len(self._sorted)

    def fraction_below(self, x: float) -> float:
        """P(X < x) — strictly below, matching "use less than 10%" claims."""
        return bisect.bisect_left(self._sorted, float(x)) / self.n

    def fraction_at_least(self, x: float) -> float:
        """P(X >= x) — matching "50% of users see at least 20% speedup"."""
        return 1.0 - self.fraction_below(x)

    def quantile(self, q: float) -> float:
        """Inverse CDF (linear interpolation between order statistics)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        return float(np.quantile(self._sorted, q))

    def to_dict(self) -> dict:
        """Compact JSON summary: size plus the decile curve."""
        grid = [i / 10.0 for i in range(11)]
        return {
            "n": self.n,
            "quantiles": {f"{q:.1f}": self.quantile(q) for q in grid},
        }

    def points(self) -> Tuple[List[float], List[float]]:
        """(x, F(x)) step points for plotting/printing the curve."""
        xs = self._sorted
        ys = [(i + 1) / self.n for i in range(self.n)]
        return list(xs), ys


@dataclass(frozen=True)
class ViolinSummary:
    """What a violin plot shows: quartiles plus a density histogram."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    stdev: float
    #: (bin_center, density) pairs of the kernel of the violin.
    density: Tuple[Tuple[float, float], ...]
    n: int


def summarize_violin(samples: Sequence[float], bins: int = 12) -> ViolinSummary:
    """Summarise a sample the way a violin plot would."""
    if not len(samples):
        raise ValueError("need at least one sample")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    data = np.asarray(list(samples), dtype=float)
    hist, edges = np.histogram(data, bins=bins, density=True)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return ViolinSummary(
        minimum=float(data.min()),
        q1=float(np.quantile(data, 0.25)),
        median=float(np.quantile(data, 0.5)),
        q3=float(np.quantile(data, 0.75)),
        maximum=float(data.max()),
        mean=float(data.mean()),
        stdev=float(data.std(ddof=1)) if len(data) > 1 else 0.0,
        density=tuple(zip(centers.tolist(), hist.tolist())),
        n=len(data),
    )


def reduction_percent(baseline: float, improved: float) -> float:
    """Percentage reduction of ``improved`` relative to ``baseline``."""
    if baseline <= 0.0:
        raise ValueError(f"baseline must be positive, got {baseline}")
    return 100.0 * (baseline - improved) / baseline
