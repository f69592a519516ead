"""Seeded fault processes for path churn.

The paper's prototype lives with phones that walk out of Wi-Fi range,
lose their radio, or see their onloading permit revoked mid-transfer
(§3, §5). This module models path availability as a *stochastic
process*: each fault process generates, deterministically from its seed,
a set of outage intervals for one target path, and a
:class:`FaultSchedule` composes any number of processes into one
effective down/up event stream that can be armed against the fluid
engine clock.

Every process is a pure function of ``(seed, parameters)`` — the same
seed always yields byte-identical schedules regardless of how the
simulator steps through time, which is what keeps churn experiments
reproducible across runs and worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.obs.capture import Instrumentation, current as obs_current
from repro.util.validate import check_non_negative, check_positive

if TYPE_CHECKING:
    from repro.netsim.fluid import FluidNetwork

#: Fault kinds, in the order the prototype encounters them.
KIND_FLAP = "flap"
KIND_WIFI = "wifi-departure"
KIND_RADIO = "radio-drop"
KIND_LATENCY = "latency-spike"


@dataclass(frozen=True)
class FaultEvent:
    """One effective availability transition of a target path."""

    time: float
    target: str
    #: ``"down"`` or ``"up"``.
    action: str
    #: The fault kind that initiated the outage (first contributor wins
    #: when overlapping intervals from several processes merge).
    kind: str


@dataclass(frozen=True)
class Outage:
    """One contiguous unavailability interval of a target path."""

    start: float
    end: float
    target: str
    kind: str

    @property
    def duration(self) -> float:
        """Length of the outage in seconds."""
        return self.end - self.start


class FaultProcess:
    """Interface: seeded outage intervals for one target path."""

    def __init__(self, target: str, seed: int) -> None:
        if not target:
            raise ValueError("fault target must be non-empty")
        self.target = target
        self.seed = int(seed)

    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed)
        )

    def outages(self, start: float, horizon: float) -> List[Outage]:
        """Outage intervals overlapping ``[start, horizon)``."""
        raise NotImplementedError


class _RenewalOutageProcess(FaultProcess):
    """Alternating up/down renewal process with exponential durations.

    The path is up for ``Exp(mean_up_s)``, down for ``Exp(mean_down_s)``,
    and so on, starting up at ``t=0``. Both renewal chains are drawn once
    from the seeded generator, so the interval sequence is independent of
    the queried window.
    """

    kind = KIND_FLAP

    def __init__(
        self,
        target: str,
        seed: int,
        mean_up_s: float,
        mean_down_s: float,
        min_down_s: float = 0.1,
    ) -> None:
        super().__init__(target, seed)
        self.mean_up_s = check_positive("mean_up_s", mean_up_s)
        self.mean_down_s = check_positive("mean_down_s", mean_down_s)
        self.min_down_s = check_non_negative("min_down_s", min_down_s)

    def outages(self, start: float, horizon: float) -> List[Outage]:
        if horizon <= start:
            return []
        rng = self._rng()
        out: List[Outage] = []
        clock = 0.0
        # Draw pairs until the up-phase start passes the horizon. The
        # chain always begins at t=0 so a later window sees the same
        # intervals.
        while clock < horizon:
            clock += float(rng.exponential(self.mean_up_s))
            if clock >= horizon:
                break
            down = max(
                float(rng.exponential(self.mean_down_s)), self.min_down_s
            )
            if clock + down > start:
                out.append(
                    Outage(
                        start=max(clock, start),
                        end=clock + down,
                        target=self.target,
                        kind=self.kind,
                    )
                )
            clock += down
        return out


class PathFlapProcess(_RenewalOutageProcess):
    """Generic up/down flapping of a path (the default churn model)."""

    kind = KIND_FLAP


class WifiDepartureProcess(_RenewalOutageProcess):
    """A phone leaving Wi-Fi range and returning later.

    Same renewal structure as :class:`PathFlapProcess` but with
    human-timescale defaults: long at-home periods, minutes-long
    absences.
    """

    kind = KIND_WIFI

    def __init__(
        self,
        target: str,
        seed: int,
        mean_home_s: float = 1800.0,
        mean_away_s: float = 300.0,
    ) -> None:
        super().__init__(
            target,
            seed,
            mean_up_s=mean_home_s,
            mean_down_s=mean_away_s,
            min_down_s=1.0,
        )


class RadioDropProcess(FaultProcess):
    """Poisson radio losses with a fixed reacquisition outage.

    Drops arrive as a Poisson process of rate ``drops_per_hour``; each
    drop takes the path down for ``outage_s`` (the time to reacquire a
    channel after RRC release / signal loss).
    """

    kind = KIND_RADIO

    def __init__(
        self,
        target: str,
        seed: int,
        drops_per_hour: float,
        outage_s: float = 8.0,
    ) -> None:
        super().__init__(target, seed)
        self.drops_per_hour = check_positive("drops_per_hour", drops_per_hour)
        self.outage_s = check_positive("outage_s", outage_s)

    def outages(self, start: float, horizon: float) -> List[Outage]:
        if horizon <= start:
            return []
        rng = self._rng()
        mean_gap = 3600.0 / self.drops_per_hour
        out: List[Outage] = []
        clock = 0.0
        while True:
            clock += float(rng.exponential(mean_gap))
            if clock >= horizon:
                break
            end = clock + self.outage_s
            if end > start:
                out.append(
                    Outage(
                        start=max(clock, start),
                        end=end,
                        target=self.target,
                        kind=self.kind,
                    )
                )
            clock = end
        return out


class LatencySpikeProcess(FaultProcess):
    """Short stalls during which a path delivers nothing.

    A latency spike (bufferbloat burst, cell handover) is modelled at
    flow level as a sub-second to few-second outage: the transfer
    freezes and resumes, which is exactly how a stalled TCP connection
    looks to the scheduler.
    """

    kind = KIND_LATENCY

    def __init__(
        self,
        target: str,
        seed: int,
        spikes_per_minute: float,
        spike_s: float = 1.5,
    ) -> None:
        super().__init__(target, seed)
        self.spikes_per_minute = check_positive(
            "spikes_per_minute", spikes_per_minute
        )
        self.spike_s = check_positive("spike_s", spike_s)

    def outages(self, start: float, horizon: float) -> List[Outage]:
        if horizon <= start:
            return []
        rng = self._rng()
        mean_gap = 60.0 / self.spikes_per_minute
        out: List[Outage] = []
        clock = 0.0
        while True:
            clock += float(rng.exponential(mean_gap))
            if clock >= horizon:
                break
            end = clock + self.spike_s
            if end > start:
                out.append(
                    Outage(
                        start=max(clock, start),
                        end=end,
                        target=self.target,
                        kind=self.kind,
                    )
                )
            clock = end
        return out


def _merge_outages(outages: Sequence[Outage]) -> List[Outage]:
    """Union of overlapping intervals (per one target).

    The merged interval keeps the kind of its earliest contributor.
    Exactly-adjacent intervals (one ends where the next starts) merge:
    the path never actually came up in between, so emitting an up/down
    pair at the same instant would be noise. Zero- and negative-duration
    intervals are dropped — an outage with no extent takes nothing down
    and must not generate transitions.
    """
    ordered = sorted(
        (o for o in outages if o.end > o.start),
        key=lambda o: (o.start, o.end),
    )
    merged: List[Outage] = []
    for outage in ordered:
        if merged and outage.start <= merged[-1].end:
            last = merged[-1]
            if outage.end > last.end:
                merged[-1] = Outage(
                    start=last.start,
                    end=outage.end,
                    target=last.target,
                    kind=last.kind,
                )
        else:
            merged.append(outage)
    return merged


class FaultSchedule:
    """Composes fault processes into one effective event stream.

    Each target path is *down* whenever any contributing process holds it
    down; overlapping intervals merge, so the armed callbacks see clean
    alternating down/up transitions per target.
    """

    def __init__(self, processes: Sequence[FaultProcess] = ()) -> None:
        self.processes: List[FaultProcess] = list(processes)

    def add(self, process: FaultProcess) -> "FaultSchedule":
        """Add one more process; returns self for chaining."""
        self.processes.append(process)
        return self

    def outages(self, start: float, horizon: float) -> List[Outage]:
        """Effective (merged) outages of every target in the window."""
        by_target: Dict[str, List[Outage]] = {}
        for process in self.processes:
            for outage in process.outages(start, horizon):
                by_target.setdefault(outage.target, []).append(outage)
        merged: List[Outage] = []
        for target in sorted(by_target):
            merged.extend(_merge_outages(by_target[target]))
        merged.sort(key=lambda o: (o.start, o.target))
        return merged

    def events(self, start: float, horizon: float) -> List[FaultEvent]:
        """The effective down/up transitions, time-ordered."""
        events: List[FaultEvent] = []
        for outage in self.outages(start, horizon):
            events.append(
                FaultEvent(
                    time=outage.start,
                    target=outage.target,
                    action="down",
                    kind=outage.kind,
                )
            )
            events.append(
                FaultEvent(
                    time=outage.end,
                    target=outage.target,
                    action="up",
                    kind=outage.kind,
                )
            )
        events.sort(key=lambda e: (e.time, e.target, e.action))
        return events

    def arm(
        self,
        network: "FluidNetwork",
        on_down: Callable[[FaultEvent], None],
        on_up: Callable[[FaultEvent], None],
        horizon: float,
        start: Optional[float] = None,
        obs: Optional[Instrumentation] = None,
    ) -> List[FaultEvent]:
        """Schedule every effective transition as a network timer.

        ``network`` is a :class:`~repro.netsim.fluid.FluidNetwork`;
        ``start`` defaults to the network's current clock. Events whose
        time has already passed are dropped. Returns the armed events.
        ``obs`` (default: the active capture, if any) records each fired
        transition as a ``fault.transition`` event on the engine clock.
        """
        if start is None:
            start = network.time
        if obs is None:
            obs = obs_current()

        def fire(
            event: FaultEvent, callback: Callable[[FaultEvent], None]
        ) -> None:
            if obs is not None:
                obs.event(
                    "fault.transition",
                    time=event.time,
                    target=event.target,
                    action=event.action,
                    kind=event.kind,
                )
                obs.count("faults.transitions", action=event.action)
            callback(event)

        armed: List[FaultEvent] = []
        for event in self.events(start, horizon):
            if event.time < network.time:
                continue
            callback = on_down if event.action == "down" else on_up
            network.schedule(
                event.time - network.time,
                (lambda ev=event, cb=callback: fire(ev, cb)),
                label=f"fault:{event.action}:{event.target}",
            )
            armed.append(event)
        return armed
