"""Fig. 10 — distribution of the used fraction of the cellular cap (§6).

"We find that 40% of the customers use less than 10% of their cap, and 75%
of the customers use less than 50%." The figure is the empirical CDF of
the used fraction over the MNO population.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.analysis.stats import Ecdf
from repro.experiments.registry import experiment, jsonable
from repro.traces.mno import generate_mno_dataset
from repro.util.formatting import fmt, render_table
from repro.util.units import bytes_to_megabytes


@dataclass(frozen=True)
class CapCdfResult:
    """The CDF plus the quantile claims the paper makes."""

    ecdf: Ecdf
    fraction_below_10pct: float
    fraction_below_50pct: float
    mean_fraction: float
    mean_daily_free_mb: float

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """CDF sampled at decile points, plus the headline claims."""
        rows = [
            (fmt(x, 1), fmt(self.ecdf.fraction_below(x)))
            for x in [0.05 * i for i in range(1, 21)]
        ]
        table = render_table(
            ["used fraction x", "P(X < x)"],
            rows,
            title="Fig. 10 — CDF of used cap fraction (MNO)",
        )
        claims = (
            f"\nusers below 10% of cap: {self.fraction_below_10pct:.0%} "
            "(paper: 40%)"
            f"\nusers below 50% of cap: {self.fraction_below_50pct:.0%} "
            "(paper: 75%)"
            f"\nmean leftover volume: {self.mean_daily_free_mb:.1f} MB/day "
            "(paper: ~20 MB usable/day)"
        )
        return table + claims


@experiment(
    "fig10",
    title="Fig. 10 — CDF of used cap fraction",
    description="CDF of used cap fraction (Fig. 10)",
    paper_ref="Fig. 10",
    claims=(
        "Paper: 40% of users use <10% of cap; 75% use <50%; ~20 MB/day "
        "of leftover volume.\n"
        "Measured: 40%/76% at the fitted mixture; ~46 MB/day mean "
        "leftover (the paper's 20 MB/day is its chosen *budget*, not "
        "the mean)."
    ),
    bench_params={"n_users": 5000, "seed": 0},
    quick_params={"n_users": 500},
    order=120,
)
def run(n_users: int = 5000, seed: int = 0) -> CapCdfResult:
    """Generate the MNO population and compute the CDF."""
    dataset = generate_mno_dataset(n_users=n_users, seed=seed)
    fractions = dataset.used_fractions_last_month()
    ecdf = Ecdf(fractions.tolist())
    return CapCdfResult(
        ecdf=ecdf,
        fraction_below_10pct=ecdf.fraction_below(0.10),
        fraction_below_50pct=ecdf.fraction_below(0.50),
        mean_fraction=float(fractions.mean()),
        mean_daily_free_mb=bytes_to_megabytes(dataset.mean_daily_free_bytes),
    )
