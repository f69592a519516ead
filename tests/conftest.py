"""Shared fixtures for the test suite."""

import pytest

from repro.netsim import stochastic
from repro.netsim.topology import Household, HouseholdConfig, LocationProfile
from repro.util.units import mbps


@pytest.fixture
def quiet_location():
    """A calm night-time location: low congestion, good signal."""
    return LocationProfile(
        name="quiet",
        description="test location, low load",
        adsl_down_bps=mbps(4.0),
        adsl_up_bps=mbps(0.5),
        signal_dbm=-80.0,
        n_stations=2,
        peak_utilization=0.3,
        measurement_hour=1.0,
    )


@pytest.fixture
def household(quiet_location):
    """A two-phone household at the quiet location."""
    return Household(quiet_location, HouseholdConfig(n_phones=2, seed=42))


@pytest.fixture
def generators(monkeypatch):
    """(seed, index) of every per-interval generator built, memo emptied."""
    stochastic.reset_draw_memo()
    built = []
    original = stochastic._interval_rng

    def counting(seed, index):
        built.append((seed, index))
        return original(seed, index)

    monkeypatch.setattr(stochastic, "_interval_rng", counting)
    yield built
    stochastic.reset_draw_memo()
