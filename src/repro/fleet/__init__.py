"""Fleet-scale city simulation: sharded households, deterministic merge.

The packages below this one simulate a handful of households in detail;
``fleet/`` scales the same models to a whole city (ROADMAP item 2,
"millions of users"). A :class:`~repro.fleet.population.Population`
samples households — DSLAM attachment, cell-sector attachment, adoption
flag, a demand mix drawn from the DSLAM trace model — from one seed; a
dispatcher / shard / measurer decomposition partitions them by cell
sector, advances each shard in vectorized rounds, and resolves
cross-shard coupling (DSLAM backhaul spanning shards, the global permit
server) by a bounded fixed-point exchange within each round. Shard
results merge deterministically: reports are byte-identical at any
shard count (see ``docs/FLEET.md`` for the contract).
"""

from repro.fleet.dispatcher import FleetOutcome, run_city, run_policy
from repro.fleet.population import (
    FleetParameters,
    Population,
    sample_population,
)
from repro.fleet.report import FleetReport, PolicySummary

__all__ = [
    "FleetOutcome",
    "FleetParameters",
    "FleetReport",
    "PolicySummary",
    "Population",
    "run_city",
    "run_policy",
    "sample_population",
]
