"""Analysis helpers: distribution statistics, the §2.1 capacity
back-of-envelope, and the §6 trace-driven load analyses.
"""

from repro.analysis.stats import (
    Ecdf,
    ViolinSummary,
    summarize_violin,
)
from repro.analysis.capacity import (
    CapacityComparison,
    CellAreaAssumptions,
    compare_capacity,
)
from repro.analysis.load import (
    AdoptionImpact,
    OnloadLoadSeries,
    UserSpeedup,
    adoption_traffic_increase,
    onloaded_load_series,
    per_user_speedups,
)

__all__ = [
    "Ecdf",
    "ViolinSummary",
    "summarize_violin",
    "CapacityComparison",
    "CellAreaAssumptions",
    "compare_capacity",
    "AdoptionImpact",
    "OnloadLoadSeries",
    "UserSpeedup",
    "adoption_traffic_increase",
    "onloaded_load_series",
    "per_user_speedups",
]
