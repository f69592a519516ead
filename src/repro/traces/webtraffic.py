"""Synthetic 3G web traffic (§2.2, Fig. 1; Table 1's first dataset).

The paper's "3G web traffic" dataset is "HTTP traffic logs for one large
cellular network ... for 24 hr period, Oct 2011, millions of users".
Fig. 1 plots its aggregate hourly volumes, which
:func:`hourly_volume_series` derives straight from the parametric
diurnal profile.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.diurnal import MOBILE_PROFILE, DiurnalProfile
from repro.util.rng import SeedLike, spawn_rng
from repro.util.validate import check_non_negative, check_positive


def hourly_volume_series(
    total_daily_bytes: float,
    profile: DiurnalProfile = MOBILE_PROFILE,
    noise_sigma: float = 0.0,
    seed: SeedLike = 0,
) -> np.ndarray:
    """Hourly traffic volumes (bytes) summing to ``total_daily_bytes``.

    Volumes follow the diurnal profile's shape; ``noise_sigma`` adds
    multiplicative lognormal sampling noise per hour (the series is then
    re-normalised so the daily total is preserved).
    """
    check_positive("total_daily_bytes", total_daily_bytes)
    check_non_negative("noise_sigma", noise_sigma)
    weights = np.array(profile.hourly, dtype=float)
    if noise_sigma > 0.0:
        rng = spawn_rng(seed)
        weights = weights * np.exp(rng.normal(0.0, noise_sigma, size=24))
    weights = weights / weights.sum()
    return weights * total_daily_bytes


def peak_hour_volume(series: np.ndarray) -> float:
    """Largest hourly volume of a series."""
    if len(series) != 24:
        raise ValueError(f"need 24 hourly values, got {len(series)}")
    return float(np.max(series))


def normalized(series: np.ndarray) -> np.ndarray:
    """Series scaled so its peak is 1.0 (the Fig. 1 presentation)."""
    peak = peak_hour_volume(series)
    if peak <= 0.0:
        raise ValueError("series must have a positive peak")
    return np.asarray(series, dtype=float) / peak
