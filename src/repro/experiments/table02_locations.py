"""Table 2 — the six measurement locations with three devices.

For each location the paper reports the DSL speed, the aggregate 3G
throughput achieved by three devices at the location's measurement hour,
and the 3GOL/DSL ratio ((DSL + 3G)/DSL). The headline numbers: downlink
boosted up to ×2.67 and uplink up to ×12.93 (Location 1, 1 a.m.); even the
VDSL-like Location 6 still gains a few percent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.experiments.registry import experiment, jsonable
from repro.netsim.topology import MEASUREMENT_LOCATIONS, LocationProfile
from repro.traces.handsets import measure_cluster_throughput
from repro.util.formatting import fmt, fmt_mbps, render_table

#: The paper uses three devices for this table.
DEVICES = 3


@dataclass(frozen=True)
class LocationRow:
    """One row of Table 2."""

    name: str
    description: str
    hour: float
    dsl_down_bps: float
    dsl_up_bps: float
    cell_down_bps: float
    cell_up_bps: float

    @property
    def speedup_down(self) -> float:
        """(DSL + 3G)/DSL on the downlink."""
        return (self.dsl_down_bps + self.cell_down_bps) / self.dsl_down_bps

    @property
    def speedup_up(self) -> float:
        """(DSL + 3G)/DSL on the uplink."""
        return (self.dsl_up_bps + self.cell_up_bps) / self.dsl_up_bps


@dataclass(frozen=True)
class LocationTableResult:
    """All rows of Table 2."""

    rows: Tuple[LocationRow, ...]

    def row(self, name: str) -> LocationRow:
        """Look up one location's row."""
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(f"no row for {name!r}")

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """The table in the paper's column layout."""
        table = []
        for row in self.rows:
            table.append(
                [
                    row.name,
                    f"{row.hour:.0f}h",
                    f"{fmt_mbps(row.dsl_down_bps)}/{fmt_mbps(row.dsl_up_bps)}",
                    f"{fmt_mbps(row.cell_down_bps)}/{fmt_mbps(row.cell_up_bps)}",
                    f"{fmt(row.speedup_down)}/{fmt(row.speedup_up)}",
                ]
            )
        return render_table(
            ["location", "time", "DSL Mbps (d/u)", "3G Mbps (d/u)", "3GOL/DSL (d/u)"],
            table,
            title="Table 2 — DSL vs 3GOL throughput with three devices",
        )


@experiment(
    "table02",
    title="Table 2 — six locations, three devices",
    description="six locations, three devices (Table 2)",
    paper_ref="Table 2",
    claims=(
        "Paper: 3GOL/DSL of x2.67/x12.93 (loc 1) down to x1.04/x1.14 "
        "(loc 6, VDSL-class).\n"
        "Measured: loc 1 ~x2.5/x13; loc 6 ~x1.1/x1.4; uplink boosts "
        "dominate everywhere, night/suburban locations gain most."
    ),
    bench_params={"repetitions": 3, "seeds": (0, 1, 2)},
    quick_params={"repetitions": 1, "seeds": (0,)},
    order=50,
)
def run(
    locations: Sequence[LocationProfile] = MEASUREMENT_LOCATIONS,
    repetitions: int = 4,
    seeds: Sequence[int] = (0, 1, 2),
) -> LocationTableResult:
    """Measure each location with three concurrent devices."""
    rows = []
    for location in locations:
        cell = {}
        for direction in ("down", "up"):
            values = []
            for seed in seeds:
                samples = measure_cluster_throughput(
                    location,
                    DEVICES,
                    direction=direction,
                    repetitions=repetitions,
                    seed=seed,
                )
                values.extend(s.aggregate_bps for s in samples)
            cell[direction] = float(np.mean(values))
        rows.append(
            LocationRow(
                name=location.name,
                description=location.description,
                hour=location.measurement_hour,
                dsl_down_bps=location.adsl_down_bps,
                dsl_up_bps=location.adsl_up_bps,
                cell_down_bps=cell["down"],
                cell_up_bps=cell["up"],
            )
        )
    return LocationTableResult(rows=tuple(rows))
