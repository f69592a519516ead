"""Household and location presets."""

import pytest

from repro.netsim.topology import (
    EVALUATION_LOCATIONS,
    MEASUREMENT_LOCATIONS,
    Household,
    HouseholdConfig,
    LocationProfile,
)
from repro.util.units import mbps


def location_by_name(name):
    """The preset location called ``name``, from either table."""
    (profile,) = [
        p for p in MEASUREMENT_LOCATIONS + EVALUATION_LOCATIONS
        if p.name == name
    ]
    return profile


class TestLocationPresets:
    def test_six_measurement_locations(self):
        assert len(MEASUREMENT_LOCATIONS) == 6

    def test_five_evaluation_locations(self):
        assert len(EVALUATION_LOCATIONS) == 5

    def test_table2_dsl_speeds(self):
        loc1 = location_by_name("location1")
        assert loc1.adsl_down_bps == mbps(3.44)
        assert loc1.adsl_up_bps == mbps(0.30)

    def test_table4_signal_strengths(self):
        assert location_by_name("loc1").signal_dbm == -81.0
        assert location_by_name("loc3").signal_dbm == -97.0

    def test_location3_has_multi_sector_stations(self):
        loc3 = location_by_name("location3")
        assert loc3.sectors_per_station == (2,)

    def test_location_validation(self):
        with pytest.raises(ValueError):
            LocationProfile(
                name="bad", description="", adsl_down_bps=0.0, adsl_up_bps=1.0
            )


class TestHousehold:
    def test_builds_requested_phones(self, household):
        assert len(household.phones) == 2

    def test_starts_at_measurement_hour(self, quiet_location):
        hh = Household(quiet_location, HouseholdConfig(n_phones=0))
        assert hh.network.time == quiet_location.measurement_hour * 3600.0

    def test_download_paths_share_wifi_link(self, household):
        paths = household.download_paths()
        for path in paths:
            assert household.wifi_link in path.links

    def test_download_paths_structure(self, household):
        paths = household.download_paths()
        assert len(paths) == 3
        assert not paths[0].is_cellular
        assert all(p.is_cellular for p in paths[1:])

    def test_upload_paths_use_uplinks(self, household):
        paths = household.upload_paths()
        assert household.adsl.uplink in paths[0].links
        assert household.origin_up in paths[0].links

    def test_path_limit(self, household):
        assert len(household.download_paths(n_phones=1)) == 2

    def test_cellular_only_paths(self, household):
        paths = household.cellular_only_paths(direction_down=False)
        assert len(paths) == 2
        assert all(p.is_cellular for p in paths)

    def test_deterministic_under_seed(self, quiet_location):
        a = Household(quiet_location, HouseholdConfig(n_phones=3, seed=9))
        b = Household(quiet_location, HouseholdConfig(n_phones=3, seed=9))
        assert [p.sector.name for p in a.phones] == [
            p.sector.name for p in b.phones
        ]

    def test_attachment_skewed_to_dominant_station(self, quiet_location):
        config = HouseholdConfig(n_phones=40, seed=1, station_dominance=0.82)
        hh = Household(quiet_location, config)
        on_first = sum(
            1 for p in hh.phones if p.station is hh.stations[0]
        )
        assert on_first > 25

    def test_flow_caps_propagate(self, quiet_location):
        config = HouseholdConfig(
            n_phones=1, wired_flow_cap_bps=mbps(3.0),
            cellular_flow_cap_bps=mbps(2.0),
        )
        hh = Household(quiet_location, config)
        assert hh.adsl_down_path().flow_rate_cap_bps == mbps(3.0)
        assert hh.phone_down_path(hh.phones[0]).flow_rate_cap_bps == mbps(2.0)

    def test_negative_phone_count_rejected(self, quiet_location):
        with pytest.raises(ValueError):
            HouseholdConfig(n_phones=-1)
