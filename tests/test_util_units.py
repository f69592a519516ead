"""Unit-conversion helpers: the single place a factor of 8 may live."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import units

finite_rates = st.floats(min_value=1.0, max_value=1e12)
finite_volumes = st.floats(min_value=0.0, max_value=1e15)
finite_durations = st.floats(min_value=1e-6, max_value=1e7)


class TestRates:
    def test_kbps(self):
        assert units.kbps(200.0) == 200_000.0

    def test_mbps(self):
        assert units.mbps(6.7) == pytest.approx(6_700_000.0)

    def test_rate_to_mbps_round_trip(self):
        assert units.rate_to_mbps(units.mbps(3.44)) == pytest.approx(3.44)

    def test_rate_to_gbps_round_trip(self):
        assert units.rate_to_gbps(5.863e9) == pytest.approx(5.863)

    def test_rate_to_mbps_is_division_by_1e6(self):
        # Pre-refactor call sites spelled `bps / 1e6`; the helper must be
        # bit-identical so the sweep changed no numbers.
        for bps in (1.0, 612_000.0, 5_863_000_000.0):
            assert units.rate_to_mbps(bps) == bps / 1e6
            assert units.rate_to_gbps(bps) == bps / 1e9

    @given(mbps_value=st.floats(min_value=0.001, max_value=100_000.0))
    def test_kbps_mbps_consistency(self, mbps_value):
        assert units.mbps(mbps_value) == pytest.approx(
            units.kbps(mbps_value * 1000.0)
        )


class TestVolumes:
    def test_megabytes(self):
        assert units.megabytes(2.5) == 2_500_000.0

    def test_bits_bytes_round_trip(self):
        assert units.bits_to_bytes(units.bytes_to_bits(123.0)) == 123.0

    def test_bytes_to_megabytes(self):
        assert units.bytes_to_megabytes(20 * units.MB) == pytest.approx(20.0)

    def test_constants_are_decimal(self):
        assert units.GB == 1000 * units.MB == 1_000_000 * units.KB

    def test_bytes_to_megabytes_is_division_by_1e6(self):
        for nbytes in (0.0, 1.0, 75_000_000.0):
            assert units.bytes_to_megabytes(nbytes) == nbytes / 1e6

    @given(nbytes=finite_volumes)
    def test_bits_bytes_round_trip_property(self, nbytes):
        assert units.bits_to_bytes(units.bytes_to_bits(nbytes)) == pytest.approx(
            nbytes
        )

    @given(bits=st.floats(min_value=0.0, max_value=1e15))
    def test_bytes_bits_round_trip_property(self, bits):
        assert units.bytes_to_bits(units.bits_to_bytes(bits)) == pytest.approx(
            bits
        )


class TestTransferTime:
    def test_one_megabyte_at_8mbps_takes_one_second(self):
        assert units.seconds_to_transfer(1_000_000, units.mbps(8)) == 1.0

    def test_paper_upload_example(self):
        # 75 MB of photos over a 0.62 Mbps uplink: the order of the
        # paper's ~900 s upload times.
        seconds = units.seconds_to_transfer(75 * units.MB, units.mbps(0.62))
        assert 900 < seconds < 1000

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            units.seconds_to_transfer(1.0, 0.0)

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError, match="volume"):
            units.seconds_to_transfer(-1.0, 1.0)

    def test_transfer_volume_inverse(self):
        rate = units.mbps(2.0)
        seconds = units.seconds_to_transfer(5 * units.MB, rate)
        assert units.transfer_volume(rate, seconds) == pytest.approx(5 * units.MB)

    def test_transfer_volume_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="duration"):
            units.transfer_volume(1.0, -0.1)

    def test_transfer_seconds_is_the_canonical_name(self):
        assert units.seconds_to_transfer is units.transfer_seconds

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            units.transfer_seconds(1.0, -5.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_volume_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            units.transfer_seconds(bad, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            units.transfer_seconds(1.0, bad)

    def test_zero_volume_takes_zero_seconds(self):
        assert units.transfer_seconds(0.0, units.mbps(1)) == 0.0


class TestTransferRate:
    def test_inverse_of_transfer_seconds(self):
        rate = units.mbps(6.7)
        seconds = units.transfer_seconds(10 * units.MB, rate)
        assert units.transfer_rate(10 * units.MB, seconds) == pytest.approx(
            rate
        )

    def test_matches_raw_arithmetic(self):
        # Pre-refactor call sites spelled `nbytes * 8.0 / seconds`.
        assert units.transfer_rate(1_000_000.0, 4.0) == 1_000_000.0 * 8.0 / 4.0

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            units.transfer_rate(1.0, 0.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            units.transfer_rate(1.0, -1.0)

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError, match="volume"):
            units.transfer_rate(-1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_inputs_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            units.transfer_rate(bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            units.transfer_rate(1.0, bad)

    @given(nbytes=st.floats(min_value=1.0, max_value=1e12), rate=finite_rates)
    def test_rate_seconds_round_trip_property(self, nbytes, rate):
        seconds = units.transfer_seconds(nbytes, rate)
        assert units.transfer_rate(nbytes, seconds) == pytest.approx(rate)

    @given(rate=finite_rates, seconds=finite_durations)
    def test_volume_round_trip_property(self, rate, seconds):
        volume = units.transfer_volume(rate, seconds)
        assert units.transfer_seconds(volume, rate) == pytest.approx(seconds)
