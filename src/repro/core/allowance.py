"""The 3GOL allowance estimator (§6).

In the multi-provider scenario the cellular operator enforces a monthly
volume cap, so 3GOL must only spend *leftover* volume. The paper proposes
a simple estimator: the suggested monthly 3GOL allowance is the mean free
capacity over the τ months before ``t``, discounted by a guard of α sample
standard deviations::

    3GOLa(t) = F̄_u(t) − α · σ̄_u(t)

With τ = 5 and α = 4 the paper finds "around 65% of the available free
capacity to be used by 3GOL with expected overrun time of under 1 day per
month overall".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.util.stats import ordered_sum
from repro.util.validate import check_non_negative

#: The paper's chosen history window (months) and guard multiplier.
DEFAULT_TAU = 5
DEFAULT_ALPHA = 4.0
#: Days in a billing month, for converting monthly allowances to the daily
#: budgets the client enforces (the paper reasons in 20 MB/day ≈ 600
#: MB/month units).
DAYS_PER_MONTH = 30.0


@dataclass(frozen=True)
class AllowanceDecision:
    """The estimator's output for one user-month."""

    #: Suggested monthly 3GOL volume (bytes, >= 0).
    monthly_allowance_bytes: float
    #: Mean free capacity over the window.
    mean_free_bytes: float
    #: Sample standard deviation of free capacity over the window.
    stdev_free_bytes: float

    @property
    def daily_allowance_bytes(self) -> float:
        """The per-day budget the device-side component enforces."""
        return self.monthly_allowance_bytes / DAYS_PER_MONTH


class AllowanceEstimator:
    """Computes 3GOLa(t) from a user's past monthly usage."""

    def __init__(self, tau: int = DEFAULT_TAU, alpha: float = DEFAULT_ALPHA) -> None:
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        check_non_negative("alpha", alpha)
        self.tau = int(tau)
        self.alpha = float(alpha)

    def estimate(
        self, cap_bytes: float, usage_history_bytes: Sequence[float]
    ) -> AllowanceDecision:
        """Allowance for the coming month.

        ``usage_history_bytes`` is the user's *primary* (non-3GOL) usage in
        the months before ``t``, most recent last; only the final ``tau``
        entries are used. Usage above cap clamps free capacity at zero.
        """
        check_non_negative("cap_bytes", cap_bytes)
        if not usage_history_bytes:
            raise ValueError("need at least one month of usage history")
        window = [float(u) for u in usage_history_bytes[-self.tau:]]
        free = [max(0.0, cap_bytes - usage) for usage in window]
        mean = ordered_sum(free) / len(free)
        if len(free) > 1:
            variance = ordered_sum((f - mean) ** 2 for f in free) / (
                len(free) - 1
            )
        else:
            variance = 0.0
        stdev = math.sqrt(variance)
        allowance = max(0.0, mean - self.alpha * stdev)
        return AllowanceDecision(
            monthly_allowance_bytes=allowance,
            mean_free_bytes=mean,
            stdev_free_bytes=stdev,
        )


@dataclass(frozen=True)
class EstimatorEvaluation:
    """Aggregate outcome of running the estimator over a user population."""

    #: Fraction of total free capacity the estimator released to 3GOL.
    utilization_of_free: float
    #: Expected cap-overrun days per user-month, assuming 3GOL spends the
    #: allowance uniformly over the month.
    overrun_days_per_month: float
    #: Fraction of user-months where allowance + usage exceeded the cap.
    overrun_month_fraction: float
    user_months: int


def evaluate_estimator(
    cap_bytes_by_user: Dict[str, float],
    usage_by_user: Dict[str, Sequence[float]],
    tau: int = DEFAULT_TAU,
    alpha: float = DEFAULT_ALPHA,
) -> EstimatorEvaluation:
    """Backtest the estimator on per-user monthly usage series.

    For each user and each month ``t`` with at least ``tau`` months of
    history, compute the allowance from months ``t-tau…t-1`` and compare
    against the month's actual usage: the month *overruns* when actual
    usage plus the granted allowance exceeds the cap. Overrun days follow
    the paper's accounting — the fraction of the month by which the
    combined volume overshoots, assuming uniform spending::

        overrun_days = 30 * max(0, usage + allowance - cap) / (usage + allowance)
    """
    estimator = AllowanceEstimator(tau=tau, alpha=alpha)
    total_free = 0.0
    total_granted = 0.0
    overrun_days: List[float] = []
    overrun_months = 0
    user_months = 0
    for user, usage_series in usage_by_user.items():
        cap = cap_bytes_by_user[user]
        series = list(usage_series)
        for t in range(tau, len(series)):
            history = series[t - tau : t]
            decision = estimator.estimate(cap, history)
            actual = series[t]
            free_this_month = max(0.0, cap - actual)
            granted = decision.monthly_allowance_bytes
            total_free += free_this_month
            # Only the part of the grant actually backed by free capacity
            # counts toward utilisation; the rest is overrun, not use.
            total_granted += min(granted, free_this_month)
            combined = actual + granted
            excess = max(0.0, combined - cap)
            if excess > 0.0 and combined > 0.0:
                overrun_months += 1
                overrun_days.append(DAYS_PER_MONTH * excess / combined)
            else:
                overrun_days.append(0.0)
            user_months += 1
    if user_months == 0:
        raise ValueError(
            f"no user-month has more than tau={tau} months of history"
        )
    return EstimatorEvaluation(
        utilization_of_free=(total_granted / total_free) if total_free else 0.0,
        overrun_days_per_month=ordered_sum(overrun_days) / user_months,
        overrun_month_fraction=overrun_months / user_months,
        user_months=user_months,
    )
