"""ADSL access-line model.

ADSL is the wired network 3GOL augments. The property that drives the
paper's motivation (§1, §2) is the asymmetry: the uplink is roughly one
tenth of the downlink, which cripples applications that source content
from the home. The line itself is dedicated (no sharing on the local
loop), so one line is a fixed downlink/uplink rate pair exposed as two
simulator links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.netsim.link import Link
from repro.util.validate import check_positive


@dataclass
class AdslLine:
    """One subscriber line: fixed downlink/uplink rate pair.

    Built from measured speeds (``AdslLine(down_bps=…, up_bps=…)``), as
    Table 2/Table 4 report them.
    """

    down_bps: float
    up_bps: float
    name: str = "adsl"
    #: TCP goodput as a fraction of the quoted rate. 1.0 when the rate was
    #: *measured* (speedtest, as in Tables 2/4); lower when the rate is the
    #: marketing/sync rate, which still carries ATM/AAL5 + TCP/IP framing
    #: (the §5.1 testbed quotes its line as "2 Mbps", a plan rate).
    goodput_efficiency: float = 1.0
    _down_link: Optional[Link] = field(default=None, repr=False)
    _up_link: Optional[Link] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        check_positive("down_bps", self.down_bps)
        check_positive("up_bps", self.up_bps)
        if self.up_bps > self.down_bps:
            raise ValueError(
                "ADSL uplink cannot exceed downlink "
                f"({self.up_bps} > {self.down_bps})"
            )
        if not 0.0 < self.goodput_efficiency <= 1.0:
            raise ValueError(
                "goodput_efficiency must be in (0, 1], got "
                f"{self.goodput_efficiency}"
            )

    @property
    def effective_down_bps(self) -> float:
        """Downlink TCP goodput."""
        return self.down_bps * self.goodput_efficiency

    @property
    def effective_up_bps(self) -> float:
        """Uplink TCP goodput."""
        return self.up_bps * self.goodput_efficiency

    @property
    def downlink(self) -> Link:
        """The downlink as a simulator link (built lazily, then cached)."""
        if self._down_link is None:
            self._down_link = Link(f"{self.name}-down", self.effective_down_bps)
        return self._down_link

    @property
    def uplink(self) -> Link:
        """The uplink as a simulator link (built lazily, then cached)."""
        if self._up_link is None:
            self._up_link = Link(f"{self.name}-up", self.effective_up_bps)
        return self._up_link

