"""Fig. 11 (a) — per-user latency speedup under the 40 MB/day budget (§6).

Over the DSLAM trace, every user's videos are boosted with two devices
sharing a 40 MB daily allowance; the figure is the CDF of
DSL-latency / 3GOL-latency per user. Paper claims: 50% of users see at
least a 20% speedup; 5% see a speedup of 2; the CDF reaches ~2.6.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.analysis.load import (
    DEFAULT_CELLULAR_BPS,
    DEFAULT_DAILY_BUDGET_BYTES,
    per_user_speedups,
)
from repro.analysis.stats import Ecdf
from repro.experiments.registry import experiment, jsonable
from repro.traces.dslam import generate_dslam_trace
from repro.util.formatting import fmt, render_table


@dataclass(frozen=True)
class BudgetedSpeedupResult:
    """The speedup CDF and the paper's claims about it."""

    ecdf: Ecdf
    fraction_at_least_1_2: float
    fraction_at_least_2_0: float
    max_speedup: float
    mean_onloaded_mb: float

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """CDF sampled on the figure's x-range plus the claims."""
        xs = [1.0 + 0.1 * i for i in range(17)]
        rows = [
            (fmt(x, 1), fmt(1.0 - self.ecdf.fraction_at_least(x)))
            for x in xs
        ]
        table = render_table(
            ["speedup x", "P(X <= x)"],
            rows,
            title="Fig. 11a — CDF of per-user DSL/3GOL latency ratio (40 MB)",
        )
        claims = (
            f"\nusers with >= 1.2x: {self.fraction_at_least_1_2:.0%} "
            "(paper: >= 50%)"
            f"\nusers with >= 2.0x: {self.fraction_at_least_2_0:.1%} "
            "(paper: ~5%)"
            f"\nmax speedup: {self.max_speedup:.2f} (paper CDF ends ~2.6)"
        )
        return table + claims


@experiment(
    "fig11a",
    title="Fig. 11a — speedup CDF under 40 MB/day",
    description="speedup CDF under budget (Fig. 11a)",
    paper_ref="Fig. 11a",
    claims=(
        "Paper: >=20% speedup for 50% of users; 5% reach x2; CDF ends "
        "~2.6.\n"
        "Measured: 5.5% reach x2 and the CDF ends at 2.6 (both on the "
        "nose); 44% reach >=1.2x vs the paper's 50% — the paper's own "
        "median demand (6 videos x ~50 MB) sits slightly above what a "
        "40 MB budget can boost by 20%, so the 50% claim is only "
        "attainable with a lighter demand distribution."
    ),
    bench_params={"n_subscribers": 2000, "seed": 0},
    quick_params={"n_subscribers": 300},
    order=130,
)
def run(
    n_subscribers: int = 2000,
    seed: int = 0,
    daily_budget_bytes: float = DEFAULT_DAILY_BUDGET_BYTES,
    cellular_bps: float = DEFAULT_CELLULAR_BPS,
) -> BudgetedSpeedupResult:
    """Generate the trace and compute per-user speedups."""
    trace = generate_dslam_trace(n_subscribers=n_subscribers, seed=seed)
    speedups = per_user_speedups(
        trace,
        daily_budget_bytes=daily_budget_bytes,
        cellular_bps=cellular_bps,
    )
    values = [s.speedup for s in speedups]
    onloaded = [s.onloaded_bytes for s in speedups]
    ecdf = Ecdf(values)
    return BudgetedSpeedupResult(
        ecdf=ecdf,
        fraction_at_least_1_2=ecdf.fraction_at_least(1.2),
        fraction_at_least_2_0=ecdf.fraction_at_least(2.0),
        max_speedup=max(values),
        mean_onloaded_mb=sum(onloaded) / len(onloaded) / 1e6,
    )
