"""ADSL line model."""

import pytest

from repro.netsim.adsl import AdslLine
from repro.util.units import mbps


class TestAdslLine:
    def test_links_expose_rates(self):
        line = AdslLine(down_bps=mbps(6.0), up_bps=mbps(0.6))
        assert line.downlink.capacity_at(0.0) == mbps(6.0)
        assert line.uplink.capacity_at(0.0) == mbps(0.6)

    def test_links_cached(self):
        line = AdslLine(down_bps=mbps(6.0), up_bps=mbps(0.6))
        assert line.downlink is line.downlink

    def test_uplink_cannot_exceed_downlink(self):
        with pytest.raises(ValueError, match="uplink"):
            AdslLine(down_bps=mbps(1.0), up_bps=mbps(2.0))

    def test_goodput_efficiency(self):
        line = AdslLine(
            down_bps=mbps(2.0), up_bps=mbps(0.5), goodput_efficiency=0.5
        )
        assert line.effective_down_bps == mbps(1.0)
        assert line.downlink.capacity_at(0.0) == mbps(1.0)

    def test_efficiency_validated(self):
        with pytest.raises(ValueError):
            AdslLine(down_bps=1.0, up_bps=0.5, goodput_efficiency=0.0)
        with pytest.raises(ValueError):
            AdslLine(down_bps=1.0, up_bps=0.5, goodput_efficiency=1.5)
