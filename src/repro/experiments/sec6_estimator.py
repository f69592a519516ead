"""§6 — allowance-estimator backtest.

"By running this estimator on the MNO dataset, we find that using τ = 5
and choosing α = 4 allows around 65% of the available free capacity to be
used by 3GOL with expected overrun time of under 1 day per month overall."

The experiment backtests ``3GOLa(t) = F̄(t) − α·σ̄(t)`` over the synthetic
MNO population for a sweep of guard values, reproducing the
utilisation/overrun trade-off and the paper's chosen operating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.allowance import EstimatorEvaluation, evaluate_estimator
from repro.experiments.registry import experiment, jsonable
from repro.traces.mno import generate_mno_dataset
from repro.util.formatting import fmt, render_table

DEFAULT_ALPHAS: Tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 6.0)
PAPER_TAU = 5
PAPER_ALPHA = 4.0


@dataclass(frozen=True)
class EstimatorResult:
    """Evaluations per guard value."""

    tau: int
    evaluations: Dict[float, EstimatorEvaluation]

    @property
    def paper_point(self) -> EstimatorEvaluation:
        """The paper's τ=5, α=4 operating point."""
        return self.evaluations[PAPER_ALPHA]

    def utilization_decreases_with_alpha(self) -> bool:
        """Larger guards release less free capacity."""
        alphas = sorted(self.evaluations)
        utils = [self.evaluations[a].utilization_of_free for a in alphas]
        return all(u1 >= u2 - 1e-9 for u1, u2 in zip(utils, utils[1:]))

    def overruns_decrease_with_alpha(self) -> bool:
        """Larger guards overrun less."""
        alphas = sorted(self.evaluations)
        overs = [self.evaluations[a].overrun_days_per_month for a in alphas]
        return all(o1 >= o2 - 1e-9 for o1, o2 in zip(overs, overs[1:]))

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """The trade-off table."""
        rows = []
        for alpha in sorted(self.evaluations):
            ev = self.evaluations[alpha]
            marker = "  <- paper" if alpha == PAPER_ALPHA else ""
            rows.append(
                (
                    fmt(alpha, 1),
                    fmt(ev.utilization_of_free),
                    fmt(ev.overrun_days_per_month),
                    fmt(ev.overrun_month_fraction) + marker,
                )
            )
        return render_table(
            [
                "alpha",
                "free capacity used",
                "overrun days/month",
                "overrun month frac",
            ],
            rows,
            title=f"§6 — allowance estimator backtest (tau={self.tau})",
        )


@experiment(
    "sec6est",
    title="§6 — allowance estimator (tau=5, alpha=4)",
    description="allowance-estimator backtest (S6)",
    paper_ref="§6",
    claims=(
        "Paper: ~65% of free capacity usable with expected overrun "
        "under 1 day/month.\n"
        "Measured: 74% of free capacity, 0.3 overrun days/month; the "
        "utilisation/overrun trade-off is monotone in alpha as the "
        "estimator intends."
    ),
    bench_params={"n_users": 2000, "seed": 0},
    quick_params={"n_users": 300},
    order=170,
)
def run(
    n_users: int = 2000,
    months: int = 12,
    seed: int = 0,
    tau: int = PAPER_TAU,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
) -> EstimatorResult:
    """Backtest over a guard sweep."""
    dataset = generate_mno_dataset(n_users=n_users, months=months, seed=seed)
    caps = dataset.cap_by_user()
    usage = dataset.usage_by_user()
    evaluations = {
        float(alpha): evaluate_estimator(caps, usage, tau=tau, alpha=alpha)
        for alpha in alphas
    }
    return EstimatorResult(tau=tau, evaluations=evaluations)
