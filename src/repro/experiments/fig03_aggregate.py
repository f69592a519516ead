"""Fig. 3 — aggregated 3G throughput vs number of active devices.

The paper overloads the base stations at four locations with up to ten
handsets downloading/uploading 2 MB files in parallel and reports the
aggregate throughput. Expected shapes (§3): downlink grows near-linearly
up to ten devices (reaching ~14 Mbps at the best location), uplink
plateaus around the 5.76 Mbps HSUPA channel cap at about five devices —
except Location 3, whose multi-sector stations let the cluster exceed a
single channel's capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.experiments.registry import experiment, jsonable
from repro.netsim.topology import MEASUREMENT_LOCATIONS, LocationProfile
from repro.traces.handsets import measure_cluster_throughput
from repro.util.formatting import fmt_mbps, render_table

DEFAULT_DEVICE_COUNTS: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)


@dataclass(frozen=True)
class AggregateThroughputResult:
    """Mean aggregate throughput per (location, direction, device count)."""

    device_counts: Tuple[int, ...]
    #: ``aggregate_bps[(location_name, direction)][i]`` for count i.
    aggregate_bps: Dict[Tuple[str, str], Tuple[float, ...]]

    def series(self, location: str, direction: str) -> Tuple[float, ...]:
        """One curve of the figure."""
        return self.aggregate_bps[(location, direction)]

    def plateau_ratio(self, location: str, direction: str) -> float:
        """Throughput at max devices over throughput at 5 devices.

        Near 1.0 indicates the curve flattened by five devices (the HSUPA
        plateau); well above 1.0 indicates continued scaling.
        """
        curve = self.series(location, direction)
        if 5 not in self.device_counts:
            raise ValueError("plateau ratio needs a 5-device measurement")
        at5 = curve[self.device_counts.index(5)]
        return curve[-1] / at5

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """The figure as a table: one row per location/direction."""
        rows = []
        for (location, direction), curve in sorted(self.aggregate_bps.items()):
            rows.append(
                [location, direction]
                + [fmt_mbps(v, 1) for v in curve]
            )
        headers = ["location", "dir"] + [
            f"{k}dev" for k in self.device_counts
        ]
        return render_table(
            headers,
            rows,
            title="Fig. 3 — aggregate 3G throughput (Mbps) vs active devices",
        )


@experiment(
    "fig03",
    title="Fig. 3 — aggregate 3G throughput vs devices",
    description="aggregate 3G throughput vs devices (Fig. 3)",
    paper_ref="Fig. 3",
    claims=(
        "Paper: downlink grows near-linearly to 10 devices (up to "
        "~14 Mbps); uplink plateaus at ~5 Mbps by 5 devices (HSUPA cap "
        "5.76), except Location 3 (multi-sector) which exceeds it.\n"
        "Measured: same shapes — plateau just under 5 Mbps at "
        "locations 1/2/4, Location 3 exceeds 5; downlink reaches "
        "~11-14 Mbps."
    ),
    bench_params={"repetitions": 3, "seeds": (0, 1)},
    quick_params={"repetitions": 1, "seeds": (0,)},
    order=20,
)
def run(
    locations: Sequence[LocationProfile] = MEASUREMENT_LOCATIONS[:4],
    device_counts: Sequence[int] = DEFAULT_DEVICE_COUNTS,
    repetitions: int = 4,
    seeds: Sequence[int] = (0, 1, 2),
) -> AggregateThroughputResult:
    """Run the campaign at each location and device count."""
    aggregate: Dict[Tuple[str, str], Tuple[float, ...]] = {}
    for location in locations:
        for direction in ("down", "up"):
            curve = []
            for count in device_counts:
                values = []
                for seed in seeds:
                    samples = measure_cluster_throughput(
                        location,
                        count,
                        direction=direction,
                        repetitions=repetitions,
                        seed=seed,
                    )
                    values.extend(s.aggregate_bps for s in samples)
                curve.append(float(np.mean(values)))
            aggregate[(location.name, direction)] = tuple(curve)
    return AggregateThroughputResult(
        device_counts=tuple(device_counts), aggregate_bps=aggregate
    )
