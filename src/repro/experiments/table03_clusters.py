"""Table 3 — per-device throughput of a base station by cluster size.

The paper reports average, maximum and standard deviation of the
throughput one base station provides *per device* for groupings of 1, 3
and 5 devices, pooling the whole campaign: the per-device rate decreases
with the group size in both directions (shared-channel contention), e.g.
1.61/1.33/1.16 Mbps mean downlink and 1.09/0.90/0.65 Mbps mean uplink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.experiments.registry import experiment, jsonable
from repro.netsim.topology import MEASUREMENT_LOCATIONS, LocationProfile
from repro.traces.handsets import measure_cluster_throughput
from repro.util.formatting import fmt_mbps, render_table
from repro.util.stats import RunningStats

DEFAULT_CLUSTER_SIZES: Tuple[int, ...] = (1, 3, 5)


@dataclass(frozen=True)
class ClusterStats:
    """One cell of the table: per-device throughput statistics."""

    mean_bps: float
    max_bps: float
    sd_bps: float
    n: int


@dataclass(frozen=True)
class ClusterTableResult:
    """Statistics per (cluster size, direction)."""

    cluster_sizes: Tuple[int, ...]
    stats: Dict[Tuple[int, str], ClusterStats]

    def per_device(self, size: int, direction: str) -> ClusterStats:
        """One table cell."""
        return self.stats[(size, direction)]

    def is_decreasing(self, direction: str) -> bool:
        """Paper claim: per-device mean falls as the cluster grows."""
        means = [
            self.stats[(size, direction)].mean_bps
            for size in self.cluster_sizes
        ]
        return all(a > b for a, b in zip(means, means[1:]))

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """The table in the paper's layout."""
        rows = []
        for size in self.cluster_sizes:
            up = self.stats[(size, "up")]
            down = self.stats[(size, "down")]
            rows.append(
                [
                    size,
                    f"{fmt_mbps(up.mean_bps)}/{fmt_mbps(up.max_bps)}/{fmt_mbps(up.sd_bps)}",
                    f"{fmt_mbps(down.mean_bps)}/{fmt_mbps(down.max_bps)}/{fmt_mbps(down.sd_bps)}",
                ]
            )
        return render_table(
            ["cluster", "uplink mean/max/sd (Mbps)", "downlink mean/max/sd (Mbps)"],
            rows,
            title="Table 3 — per-device throughput of an HSPA station",
        )


@experiment(
    "table03",
    title="Table 3 — per-device throughput by cluster size",
    description="per-device rate by cluster size (Table 3)",
    paper_ref="Table 3",
    claims=(
        "Paper: mean per-device rate falls with the cluster — down "
        "1.61/1.33/1.16 Mbps, up 1.09/0.90/0.65 Mbps for 1/3/5 "
        "devices.\n"
        "Measured: strictly decreasing in both directions, means "
        "within ~30% of the paper's."
    ),
    bench_params={"days": 2},
    quick_params={"days": 1},
    order=60,
)
def run(
    locations: Sequence[LocationProfile] = MEASUREMENT_LOCATIONS[:6],
    cluster_sizes: Sequence[int] = DEFAULT_CLUSTER_SIZES,
    hours: Sequence[float] = (2.0, 10.0, 18.0),
    days: int = 2,
) -> ClusterTableResult:
    """Pool per-device samples across locations, hours and days."""
    stats: Dict[Tuple[int, str], ClusterStats] = {}
    for size in cluster_sizes:
        for direction in ("down", "up"):
            pooled = RunningStats()
            for location in locations:
                for hour in hours:
                    for day in range(days):
                        samples = measure_cluster_throughput(
                            location,
                            size,
                            direction=direction,
                            hour=hour,
                            repetitions=2,
                            seed=day * 17 + int(hour),
                        )
                        for sample in samples:
                            pooled.extend(sample.per_device_bps)
            stats[(size, direction)] = ClusterStats(
                mean_bps=pooled.mean,
                max_bps=pooled.maximum,
                sd_bps=pooled.stdev,
                n=pooled.count,
            )
    return ClusterTableResult(
        cluster_sizes=tuple(cluster_sizes), stats=stats
    )
