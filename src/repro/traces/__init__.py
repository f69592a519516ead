"""Synthetic data sources.

The paper's evaluation leans on four proprietary datasets (its Table 1):
3G web-traffic logs, per-user monthly demand from a mobile network
operator (MNO), a DSLAM flow-level trace, and the handset measurement
campaign. None are publicly available, so this package generates seeded
synthetic equivalents matching every statistic the paper reports about
them; DESIGN.md §2 records the substitutions.
"""

from repro.traces.mno import MnoDataset, MnoUser, generate_mno_dataset
from repro.traces.dslam import (
    DslamTrace,
    VideoRequest,
    generate_dslam_trace,
)
from repro.traces.webtraffic import hourly_volume_series
from repro.traces.pictures import generate_photo_set
from repro.traces.handsets import (
    MeasurementSample,
    measure_cluster_throughput,
)

__all__ = [
    "MnoDataset",
    "MnoUser",
    "generate_mno_dataset",
    "DslamTrace",
    "VideoRequest",
    "generate_dslam_trace",
    "hourly_volume_series",
    "generate_photo_set",
    "MeasurementSample",
    "measure_cluster_throughput",
]
