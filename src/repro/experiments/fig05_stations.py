"""Fig. 5 — throughput served per base station (violin plots).

The paper groups the campaign's per-device throughput samples by the base
station serving each device and shows their distributions as violins, with
solid reference lines at the dedicated UMTS channel rates (360 kbps down,
64 kbps up): everything above those lines is HSDPA/HSUPA shared-channel
capacity. Observed range: a station provides roughly 0.7-2.5 Mbps per
device in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.analysis.stats import ViolinSummary, summarize_violin
from repro.experiments.registry import experiment, jsonable
from repro.netsim.cellular import HspaParameters
from repro.netsim.topology import MEASUREMENT_LOCATIONS, LocationProfile
from repro.traces.handsets import measure_cluster_throughput
from repro.util.formatting import fmt_mbps, render_table


@dataclass(frozen=True)
class StationDistributionResult:
    """Violin summaries per (location, station, direction)."""

    violins: Dict[Tuple[str, str, str], ViolinSummary]
    dedicated_down_bps: float
    dedicated_up_bps: float

    def stations_for(self, location: str) -> Tuple[str, ...]:
        """Base stations with samples at one location."""
        return tuple(
            sorted(
                {
                    station
                    for (loc, station, _), _ in self.violins.items()
                    if loc == location
                }
            )
        )

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """Quartile table standing in for the violins."""
        rows = []
        for (location, station, direction), violin in sorted(
            self.violins.items()
        ):
            rows.append(
                [
                    location,
                    station,
                    direction,
                    fmt_mbps(violin.minimum),
                    fmt_mbps(violin.q1),
                    fmt_mbps(violin.median),
                    fmt_mbps(violin.q3),
                    fmt_mbps(violin.maximum),
                    violin.n,
                ]
            )
        return render_table(
            [
                "location",
                "station",
                "dir",
                "min",
                "q1",
                "median",
                "q3",
                "max",
                "n",
            ],
            rows,
            title=(
                "Fig. 5 — per-device throughput (Mbps) by base station "
                "(violin quartiles)"
            ),
        )


@experiment(
    "fig05",
    title="Fig. 5 — throughput per base station (violins)",
    description="per-base-station distributions (Fig. 5)",
    paper_ref="Fig. 5",
    claims=(
        "Paper: stations serve ~0.7-2.5 Mbps per device, all above "
        "the 360/64 kbps dedicated-channel lines; >= 2 stations per "
        "location.\n"
        "Measured: medians 0.4-2.2 Mbps, all above the dedicated "
        "floors; every studied location shows >= 2 serving stations."
    ),
    bench_params={"days": 2},
    quick_params={"days": 1},
    order=40,
)
def run(
    locations: Sequence[LocationProfile] = MEASUREMENT_LOCATIONS[:6],
    hours: Sequence[float] = (2.0, 8.0, 14.0, 20.0),
    group_size: int = 3,
    days: int = 2,
) -> StationDistributionResult:
    """Collect per-device samples and group them by serving station."""
    samples_by_key: Dict[Tuple[str, str, str], list] = {}
    for location in locations:
        for direction in ("down", "up"):
            for hour in hours:
                for day in range(days):
                    samples = measure_cluster_throughput(
                        location,
                        group_size,
                        direction=direction,
                        hour=hour,
                        repetitions=2,
                        seed=day * 31 + int(hour),
                    )
                    for sample in samples:
                        for rate, station in zip(
                            sample.per_device_bps, sample.stations
                        ):
                            key = (location.name, station, direction)
                            samples_by_key.setdefault(key, []).append(rate)
    params = HspaParameters()
    return StationDistributionResult(
        violins={
            key: summarize_violin(values)
            for key, values in samples_by_key.items()
        },
        dedicated_down_bps=params.dedicated_down_bps,
        dedicated_up_bps=params.dedicated_up_bps,
    )
