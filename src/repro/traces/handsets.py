"""The §3 handset measurement campaign, on the simulator.

The paper programmed 10 Samsung Galaxy S II handsets to download/upload
2 MB files from six locations, adding one device every 20 minutes, and
later ran hourly measurements in groups of five, three and one device over
five days. This module is the campaign driver: it builds the location's
cellular deployment, runs the same transfer pattern as concurrent fluid
flows, and reports per-device and aggregate throughput samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.netsim.fluid import Flow, FluidNetwork
from repro.netsim.path import NetworkPath
from repro.netsim.topology import Household, HouseholdConfig, LocationProfile
from repro.util.stats import ordered_sum
from repro.util.units import MB, transfer_rate

#: Transfer size of the campaign ("download and upload 2 MB files").
MEASUREMENT_FILE_BYTES = 2.0 * MB


@dataclass(frozen=True)
class MeasurementSample:
    """One repetition of a concurrent k-device throughput measurement."""

    location: str
    hour: float
    direction: str
    n_devices: int
    repetition: int
    #: Application-level throughput each device achieved (bits/second).
    per_device_bps: Tuple[float, ...]
    #: Base station each device was attached to, index-aligned.
    stations: Tuple[str, ...]

    @property
    def aggregate_bps(self) -> float:
        """Sum of per-device throughputs — the Fig. 3 y-axis."""
        return ordered_sum(self.per_device_bps)


def _run_concurrent_transfers(
    network: FluidNetwork, paths: Sequence[NetworkPath], file_bytes: float
) -> List[float]:
    """Start one transfer per path simultaneously; return durations."""
    durations: List[Optional[float]] = [None] * len(paths)
    start = network.time

    def make_callback(index: int) -> Callable[[Flow, float], None]:
        def complete(flow: Flow, now: float) -> None:
            durations[index] = now - start

        return complete

    for index, path in enumerate(paths):
        delay = path.start_delay(start, fresh_connection=True)
        network.add_flow(
            Flow(
                file_bytes,
                path.links,
                on_complete=make_callback(index),
                label=f"measure:{path.name}",
            ),
            delay=delay,
        )
    network.run()
    missing = [i for i, d in enumerate(durations) if d is None]
    if missing:
        raise RuntimeError(
            f"measurement transfers {missing} never completed "
            "(dead cellular path?)"
        )
    return [float(d) for d in durations]


def measure_cluster_throughput(
    location: LocationProfile,
    n_devices: int,
    direction: str = "down",
    hour: Optional[float] = None,
    repetitions: int = 4,
    file_bytes: float = MEASUREMENT_FILE_BYTES,
    seed: int = 0,
) -> List[MeasurementSample]:
    """Measure aggregate throughput with ``n_devices`` active at once.

    Mirrors the campaign: all devices transfer a ``file_bytes`` file in
    parallel over their 3G interfaces; ``repetitions`` back-to-back rounds
    are taken (the paper repeats each measurement four times). Throughput
    per device is application-level (includes radio acquisition on the
    first round).
    """
    if n_devices < 1:
        raise ValueError(f"n_devices must be >= 1, got {n_devices}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if direction not in ("down", "up"):
        raise ValueError(f"direction must be 'down' or 'up', got {direction}")
    if hour is None:
        hour = location.measurement_hour
    household = Household(
        location,
        HouseholdConfig(n_phones=n_devices, seed=seed),
        start_time=hour * 3600.0,
    )
    paths = household.cellular_only_paths(
        direction_down=(direction == "down"), n_phones=n_devices
    )
    stations = tuple(
        phone.station.name for phone in household.phones[:n_devices]
    )
    samples: List[MeasurementSample] = []
    for repetition in range(repetitions):
        durations = _run_concurrent_transfers(
            household.network, paths, file_bytes
        )
        samples.append(
            MeasurementSample(
                location=location.name,
                hour=hour,
                direction=direction,
                n_devices=n_devices,
                repetition=repetition,
                per_device_bps=tuple(
                    transfer_rate(file_bytes, d) for d in durations
                ),
                stations=stations,
            )
        )
    return samples
