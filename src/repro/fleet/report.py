"""Fleet reports: deterministic summaries of a merged city day.

A :class:`FleetReport` reduces a :class:`~repro.fleet.dispatcher.FleetOutcome`
to jsonable integers and histogram counts. Everything here derives from
the merged per-household arrays (already id-indexed, already integer),
so the rendered report and the digest over :meth:`FleetReport.lines`
are byte-identical at any shard count — that digest is exactly what
the shard-invariance tests pin.

Speedup per household follows the paper's comparisons: the ratio of
backlog integrals (baseline over policy), smoothed by one line-round so
households with near-zero backlog under both runs report 1.0 rather
than noise. Waste is the §6 critique made measurable — onloaded cap
bytes whose ADSL line share went unused.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.fleet.dispatcher import FleetOutcome, PolicyRun
from repro.util.formatting import fmt, render_table

__all__ = ["FleetReport", "PolicySummary", "SPEEDUP_BUCKETS"]

#: Speedup histogram bucket edges (last bucket is open-ended).
SPEEDUP_BUCKETS = (1.0, 1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0)

#: Waste-fraction histogram bucket edges over adopters who onloaded.
WASTE_BUCKETS = (0.0, 0.05, 0.1, 0.25, 0.5, 0.75)


def _bucket_counts(
    values: "np.ndarray[Any, Any]", edges: Tuple[float, ...]
) -> Tuple[int, ...]:
    """Counts per bucket ``[edges[i], edges[i+1])``, last open-ended."""
    bins = list(edges) + [float("inf")]
    counts, _ = np.histogram(values, bins=bins)
    return tuple(int(c) for c in counts)


def _percentile_sorted(
    sorted_values: "np.ndarray[Any, Any]", fraction: float
) -> float:
    """Nearest-rank percentile of an ascending array (deterministic)."""
    if sorted_values.size == 0:
        return 0.0
    rank = min(
        sorted_values.size - 1,
        max(0, int(np.ceil(fraction * sorted_values.size)) - 1),
    )
    return float(sorted_values[rank])


@dataclass(frozen=True)
class PolicySummary:
    """One policy's day, reduced to jsonable scalars and histograms."""

    policy: str
    adoption: float
    adsl_bytes: int
    onload_bytes: int
    waste_bytes: int
    backlog_end_bytes: int
    cap_exhaustions: int
    permit_requests: int
    permit_grants: int
    permit_denials: Dict[str, int]
    congested_sector_rounds: int
    sector_util_mean: float
    sector_util_p95: float
    sector_util_max: float
    #: Households per speedup bucket vs the adsl-only baseline.
    speedup_counts: Tuple[int, ...]
    #: Mean per-household speedup vs baseline.
    speedup_mean: float
    #: Onloading adopters per waste-fraction bucket.
    waste_counts: Tuple[int, ...]

    def to_dict(self) -> Dict[str, Any]:
        """Jsonable form (ints, floats, lists only)."""
        return {
            "policy": self.policy,
            "adoption": self.adoption,
            "adsl_bytes": self.adsl_bytes,
            "onload_bytes": self.onload_bytes,
            "waste_bytes": self.waste_bytes,
            "backlog_end_bytes": self.backlog_end_bytes,
            "cap_exhaustions": self.cap_exhaustions,
            "permit_requests": self.permit_requests,
            "permit_grants": self.permit_grants,
            "permit_denials": dict(sorted(self.permit_denials.items())),
            "congested_sector_rounds": self.congested_sector_rounds,
            "sector_util_mean": round(self.sector_util_mean, 6),
            "sector_util_p95": round(self.sector_util_p95, 6),
            "sector_util_max": round(self.sector_util_max, 6),
            "speedup_buckets": list(SPEEDUP_BUCKETS),
            "speedup_counts": list(self.speedup_counts),
            "speedup_mean": round(self.speedup_mean, 6),
            "waste_buckets": list(WASTE_BUCKETS),
            "waste_counts": list(self.waste_counts),
        }


def _summarize(
    run: PolicyRun, baseline: PolicyRun, line_round_bytes: int
) -> PolicySummary:
    """Reduce one merged policy run against the shared baseline."""
    smoothing = float(max(line_round_bytes, 1))
    speedup = (baseline.backlog_integral + smoothing) / (
        run.backlog_integral + smoothing
    )
    onloaded = run.served_3g > 0
    served = run.served_3g[onloaded].astype(np.float64)
    wasted = run.waste[onloaded].astype(np.float64)
    waste_fraction = wasted / np.maximum(served, 1.0)

    util = np.sort(run.sector_util, axis=None)
    return PolicySummary(
        policy=run.policy,
        adoption=run.adoption,
        adsl_bytes=run.total_adsl_bytes,
        onload_bytes=run.total_onload_bytes,
        waste_bytes=run.total_waste_bytes,
        backlog_end_bytes=int(run.backlog.sum()),
        cap_exhaustions=run.cap_exhaustions,
        permit_requests=run.permit_requests,
        permit_grants=run.permit_grants,
        permit_denials=dict(run.permit_denials),
        congested_sector_rounds=run.congested_sector_rounds,
        sector_util_mean=float(util.mean()) if util.size else 0.0,
        sector_util_p95=_percentile_sorted(util, 0.95),
        sector_util_max=float(util[-1]) if util.size else 0.0,
        speedup_counts=_bucket_counts(speedup, SPEEDUP_BUCKETS),
        speedup_mean=float(speedup.mean()),
        waste_counts=_bucket_counts(waste_fraction, WASTE_BUCKETS),
    )


@dataclass(frozen=True)
class FleetReport:
    """The whole comparison, rendered and digestible."""

    n_households: int
    seed: int
    adoption: float
    demand_bytes: int
    summaries: Tuple[PolicySummary, ...]

    @classmethod
    def from_outcome(cls, outcome: FleetOutcome) -> "FleetReport":
        """Summarize every policy run against the adsl-only baseline."""
        baseline = outcome.baseline
        line = outcome.params.line_round_bytes
        summaries = tuple(
            _summarize(run, baseline, line)
            for _policy, run in sorted(outcome.runs.items())
        )
        return cls(
            n_households=outcome.params.n_households,
            seed=outcome.params.seed,
            adoption=outcome.adoption,
            demand_bytes=int(sum(baseline.round_arrivals)),
            summaries=summaries,
        )

    def check_conservation(self, outcome: FleetOutcome) -> List[str]:
        """Invariant findings (empty list: all conserved).

        For every run, delivered(adsl + 3G) + end backlog must equal the
        day's arrivals — the merge must neither mint nor lose bytes.
        """
        findings: List[str] = []
        for policy, run in sorted(outcome.runs.items()):
            arrivals = sum(run.round_arrivals)
            delivered = run.total_adsl_bytes + run.total_onload_bytes
            remaining = int(run.backlog.sum())
            if arrivals != delivered + remaining:
                findings.append(
                    f"{policy}: arrivals {arrivals} != delivered "
                    f"{delivered} + backlog {remaining}"
                )
        return findings

    def to_dict(self) -> Dict[str, Any]:
        """Jsonable form, stable key order."""
        return {
            "n_households": self.n_households,
            "seed": self.seed,
            "adoption": self.adoption,
            "demand_bytes": self.demand_bytes,
            "policies": [s.to_dict() for s in self.summaries],
        }

    def lines(self) -> List[str]:
        """Canonical JSON lines (digest input), one policy per line."""
        header = {
            "n_households": self.n_households,
            "seed": self.seed,
            "adoption": self.adoption,
            "demand_bytes": self.demand_bytes,
        }
        out = [json.dumps(header, sort_keys=True)]
        out.extend(
            json.dumps(s.to_dict(), sort_keys=True) for s in self.summaries
        )
        return out

    def digest(self) -> str:
        """sha256 over :meth:`lines` — the shard-invariance fingerprint."""
        payload = "\n".join(self.lines()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def render(self) -> str:
        """Aligned text tables for terminal reading."""
        policy_rows = [
            (
                s.policy,
                s.adsl_bytes,
                s.onload_bytes,
                s.waste_bytes,
                s.backlog_end_bytes,
                fmt(s.speedup_mean),
                s.cap_exhaustions,
                s.congested_sector_rounds,
            )
            for s in self.summaries
        ]
        parts = [
            render_table(
                (
                    "policy",
                    "adsl B",
                    "3G B",
                    "waste B",
                    "backlog B",
                    "speedup",
                    "cap dry",
                    "congested",
                ),
                policy_rows,
                title=(
                    f"fleet day: {self.n_households} households, "
                    f"adoption {fmt(self.adoption)}, seed {self.seed}"
                ),
            )
        ]
        permit_rows = [
            (
                s.policy,
                s.permit_requests,
                s.permit_grants,
                s.permit_denials.get("capacity", 0),
                s.permit_denials.get("threshold", 0),
                fmt(s.sector_util_mean),
                fmt(s.sector_util_p95),
                fmt(s.sector_util_max),
            )
            for s in self.summaries
        ]
        parts.append(
            render_table(
                (
                    "policy",
                    "permits",
                    "granted",
                    "deny cap",
                    "deny util",
                    "util mean",
                    "util p95",
                    "util max",
                ),
                permit_rows,
                title="permit server + sector utilization",
            )
        )
        return "\n\n".join(parts)
