"""Shared setup for the §5.2 in-the-wild evaluation (Figs. 7-9, Table 4).

Calibration note (recorded in EXPERIMENTS.md): the paper's reported gains
— e.g. a 38 s pre-buffering reduction at loc2, whose line syncs at
21.64 Mbps and could fetch the whole Q4 video in ~7 s at line rate — are
only possible if the *effective* single-connection throughput to the
origin was far below the line's speedtest rate. The standard mechanism is
TCP receive-window limiting: one connection with a ~64 KB window over a
~150 ms wide-area RTT tops out near 3.5 Mbps regardless of access speed.
We therefore run the wild evaluation with a per-flow cap of 3.5 Mbps on
the wired path (the multipath proxy's parallel connections are each capped
too, but N of them run concurrently, so 3GOL sidesteps the limit exactly
as the real prototype's parallel GETs did).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.mobile import OperatingMode
from repro.core.session import OnloadSession
from repro.netsim.topology import EVALUATION_LOCATIONS, LocationProfile
from repro.pilot.simulation import wild_config
from repro.util.rng import RngFactory

#: §5.2 runs start "around 9.00 am" on weekdays.
EVAL_START_HOUR = 9.0


def make_session(
    location: LocationProfile,
    n_phones: int,
    seed: int,
    connected_start: bool = False,
) -> OnloadSession:
    """Build one evaluation session; optionally force radios into DCH.

    ``connected_start`` reproduces the paper's "H" mode, where a train of
    ICMP packets put the radio in a connected state just before the
    transaction; the default is the idle ("3G") start. The seed is salted
    with the location name so two locations with identical parameters
    still see independent radio conditions, as distinct homes would.
    """
    seed = RngFactory(seed).derive_seed(location.name) % 1_000_000
    session = OnloadSession.for_location(
        location,
        n_phones=n_phones,
        seed=seed,
        mode=OperatingMode.MULTI_PROVIDER,
        # The paper's own handsets ran on 10 GB plans and §5 enforces no
        # 3GOL budget; an effectively-unlimited tracker keeps the phones
        # advertising throughout.
        daily_budget_bytes=1e13,
        config=wild_config(n_phones, seed),
    )
    if connected_start:
        now = session.network.time
        for phone in session.household.phones:
            phone.radio.force_connected(now)
    return session


def eval_locations() -> Sequence[LocationProfile]:
    """The five Table 4 locations."""
    return EVALUATION_LOCATIONS
