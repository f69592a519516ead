"""Web-traffic series, photo sets, handset campaign."""

import numpy as np
import pytest

from repro.netsim.topology import MEASUREMENT_LOCATIONS
from repro.traces.handsets import measure_cluster_throughput
from repro.traces.pictures import generate_photo_set
from repro.traces.webtraffic import (
    hourly_volume_series,
    normalized,
    peak_hour_volume,
)
from repro.util.units import GB, mbps


class TestWebTraffic:
    def test_sums_to_total(self):
        series = hourly_volume_series(1 * GB, noise_sigma=0.1, seed=1)
        assert series.sum() == pytest.approx(1 * GB)
        assert len(series) == 24

    def test_normalized_peak_is_one(self):
        series = hourly_volume_series(1 * GB)
        assert normalized(series).max() == 1.0

    def test_noise_changes_shape_but_not_total(self):
        a = hourly_volume_series(1 * GB, noise_sigma=0.2, seed=1)
        b = hourly_volume_series(1 * GB, noise_sigma=0.2, seed=2)
        assert not np.array_equal(a, b)
        assert a.sum() == pytest.approx(b.sum())

    def test_peak_hour_volume_validates_length(self):
        with pytest.raises(ValueError):
            peak_hour_volume(np.ones(10))


class TestPhotoSets:
    def test_paper_moments(self):
        photos = generate_photo_set(count=500, seed=2)
        sizes = np.array([p.size_bytes for p in photos])
        assert np.mean(sizes) == pytest.approx(2.5e6, rel=0.1)
        assert np.std(sizes) == pytest.approx(0.74e6, rel=0.35)

    def test_default_is_thirty_photos(self):
        assert len(generate_photo_set(seed=1)) == 30

    def test_sizes_truncated(self):
        photos = generate_photo_set(count=1000, seed=3)
        assert all(0.3e6 <= p.size_bytes <= 6.0e6 for p in photos)

    def test_deterministic(self):
        a = generate_photo_set(seed=4)
        b = generate_photo_set(seed=4)
        assert [p.size_bytes for p in a] == [p.size_bytes for p in b]

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_photo_set(count=0)


class TestHandsetCampaign:
    def test_sample_structure(self):
        samples = measure_cluster_throughput(
            MEASUREMENT_LOCATIONS[0], 3, repetitions=2, seed=1
        )
        assert len(samples) == 2
        for sample in samples:
            assert len(sample.per_device_bps) == 3
            assert len(sample.stations) == 3
            assert sample.aggregate_bps == pytest.approx(
                sum(sample.per_device_bps)
            )

    def test_aggregate_grows_with_devices(self):
        loc = MEASUREMENT_LOCATIONS[0]
        one = np.mean([
            s.aggregate_bps
            for s in measure_cluster_throughput(loc, 1, repetitions=2, seed=1)
        ])
        three = np.mean([
            s.aggregate_bps
            for s in measure_cluster_throughput(loc, 3, repetitions=2, seed=1)
        ])
        assert three > one * 1.5

    def test_upload_direction(self):
        samples = measure_cluster_throughput(
            MEASUREMENT_LOCATIONS[0], 2, direction="up", repetitions=1, seed=1
        )
        assert samples[0].direction == "up"
        assert samples[0].aggregate_bps > mbps(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_cluster_throughput(MEASUREMENT_LOCATIONS[0], 0)
        with pytest.raises(ValueError):
            measure_cluster_throughput(
                MEASUREMENT_LOCATIONS[0], 1, direction="sideways"
            )
