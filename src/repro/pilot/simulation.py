"""Day-scale simulation of the pilot fleet.

Every household runs its plan twice over identical conditions: once with
3GOL (discovery, budgets, the greedy scheduler) and once as the paired
ADSL-only baseline, so per-event speedups are exact. Cap trackers meter
the phones across the whole day, which is where the §6 machinery finally
meets the §5 applications: a household that watches enough video sees its
phones withdraw by evening, and the evening upload then runs unassisted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.mobile import OperatingMode
from repro.core.permits import PermitServer
from repro.core.session import DEFAULT_DAILY_BUDGET_BYTES, OnloadSession
from repro.netsim.topology import Household, HouseholdConfig
from repro.pilot.workload import HouseholdPlan, PhotoUploadEvent, VideoEvent
from repro.traces.pictures import generate_photo_set
from repro.util.rng import RngFactory
from repro.util.stats import RunningStats
from repro.util.units import bytes_to_megabytes, mbps

#: rwnd/RTT cap of one TCP connection to the (distant) origin server
#: (~56 KB window over ~150 ms).
WIRED_FLOW_CAP_BPS = mbps(3.0)
#: The 3G proxy path is also a single TCP connection; HSPA RTTs are higher
#: but the radio link is the tighter constraint, so the cap rarely binds.
CELLULAR_FLOW_CAP_BPS = mbps(3.0)


def wild_config(
    n_phones: int, seed: int, connected_start: bool = False
) -> HouseholdConfig:
    """Household configuration of the §5.2 wild evaluation and the pilot."""
    return HouseholdConfig(
        n_phones=n_phones,
        wired_flow_cap_bps=WIRED_FLOW_CAP_BPS,
        cellular_flow_cap_bps=CELLULAR_FLOW_CAP_BPS,
        seed=seed,
    )


@dataclass(frozen=True)
class EventOutcome:
    """One transaction, boosted vs baseline."""

    kind: str  # "video" or "upload"
    time_s: float
    baseline_s: float
    boosted_s: float
    phones_used: int

    @property
    def speedup(self) -> float:
        """Baseline over boosted duration."""
        return self.baseline_s / self.boosted_s


@dataclass(frozen=True)
class HouseholdOutcome:
    """One household's day."""

    household_id: str
    location_name: str
    events: Tuple[EventOutcome, ...]
    onloaded_bytes_by_phone: Dict[str, float]

    def speedups(self, kind: Optional[str] = None) -> List[float]:
        """Per-event speedups, optionally filtered by kind."""
        return [
            e.speedup for e in self.events if kind is None or e.kind == kind
        ]

    @property
    def total_onloaded_bytes(self) -> float:
        """Cellular bytes the household consumed for 3GOL today."""
        return sum(self.onloaded_bytes_by_phone.values())


@dataclass
class PilotReport:
    """The fleet-level report a pilot operator would read."""

    outcomes: List[HouseholdOutcome] = field(default_factory=list)
    daily_budget_bytes: float = DEFAULT_DAILY_BUDGET_BYTES

    def _all_speedups(self, kind: str) -> List[float]:
        values: List[float] = []
        for outcome in self.outcomes:
            values.extend(outcome.speedups(kind))
        return values

    @property
    def mean_video_speedup(self) -> float:
        """Average speedup over every video event in the fleet."""
        values = self._all_speedups("video")
        return sum(values) / len(values) if values else 1.0

    @property
    def mean_upload_speedup(self) -> float:
        """Average speedup over every upload event in the fleet."""
        values = self._all_speedups("upload")
        return sum(values) / len(values) if values else 1.0

    @property
    def boosted_event_fraction(self) -> float:
        """Fraction of events that had at least one phone assisting."""
        events = [e for o in self.outcomes for e in o.events]
        if not events:
            return 0.0
        return sum(1 for e in events if e.phones_used > 0) / len(events)

    @property
    def mean_onloaded_mb_per_household(self) -> float:
        """Average cellular volume spent per household over the day."""
        if not self.outcomes:
            return 0.0
        return bytes_to_megabytes(
            sum(o.total_onloaded_bytes for o in self.outcomes)
            / len(self.outcomes)
        )

    def phones_over_budget(self) -> int:
        """Phones whose day's onloading exceeded the daily budget."""
        count = 0
        for outcome in self.outcomes:
            for used in outcome.onloaded_bytes_by_phone.values():
                if used > self.daily_budget_bytes:
                    count += 1
        return count

    def to_dict(self) -> dict:
        """JSON-ready fleet summary (``repro run pilot --json``)."""
        return {
            "households": len(self.outcomes),
            "transactions": sum(len(o.events) for o in self.outcomes),
            "mean_video_speedup": self.mean_video_speedup,
            "mean_upload_speedup": self.mean_upload_speedup,
            "boosted_event_fraction": self.boosted_event_fraction,
            "mean_onloaded_mb_per_household": (
                self.mean_onloaded_mb_per_household
            ),
            "phones_over_budget": self.phones_over_budget(),
            "daily_budget_bytes": self.daily_budget_bytes,
        }

    def render(self) -> str:
        """The operator's summary."""
        video = RunningStats()
        video.extend(self._all_speedups("video") or [1.0])
        upload = RunningStats()
        upload.extend(self._all_speedups("upload") or [1.0])
        lines = [
            "Pilot study — "
            f"{len(self.outcomes)} households, "
            f"{sum(len(o.events) for o in self.outcomes)} transactions",
            f"  video speedup   : mean x{video.mean:.2f} "
            f"(max x{video.maximum:.2f})" if video.count else "",
            f"  upload speedup  : mean x{upload.mean:.2f} "
            f"(max x{upload.maximum:.2f})" if upload.count else "",
            f"  boosted events  : {self.boosted_event_fraction:.0%}",
            f"  onloaded volume : "
            f"{self.mean_onloaded_mb_per_household:.1f} MB/household/day",
            f"  budget overruns : {self.phones_over_budget()} phones "
            f"(in-flight overshoot only)",
        ]
        return "\n".join(line for line in lines if line)


class PilotStudy:
    """Runs the fleet, one household at a time."""

    def __init__(
        self,
        plans: Sequence[HouseholdPlan],
        mode: OperatingMode = OperatingMode.MULTI_PROVIDER,
        daily_budget_bytes: float = DEFAULT_DAILY_BUDGET_BYTES,
        permit_server_factory: Optional[Callable[[], PermitServer]] = None,
        seed: int = 0,
    ) -> None:
        if not plans:
            raise ValueError("need at least one household plan")
        if mode is OperatingMode.NETWORK_INTEGRATED and (
            permit_server_factory is None
        ):
            raise ValueError(
                "network-integrated mode needs a permit_server_factory"
            )
        self.plans = list(plans)
        self.mode = mode
        self.daily_budget_bytes = daily_budget_bytes
        self.permit_server_factory = permit_server_factory
        self.seed = seed

    # ------------------------------------------------------------------
    def _make_sessions(
        self, plan: HouseholdPlan, seed: int
    ) -> Tuple[OnloadSession, OnloadSession]:
        """The boosted session and its paired ADSL-only baseline."""
        def build() -> OnloadSession:
            config = wild_config(plan.n_phones, seed)
            household = Household(plan.location, config, start_time=0.0)
            permit_server = (
                self.permit_server_factory()
                if self.permit_server_factory is not None
                else None
            )
            session = OnloadSession(
                household,
                mode=self.mode,
                daily_budget_bytes=self.daily_budget_bytes,
                permit_server=permit_server,
            )
            session.host_bipbop()
            return session

        return build(), build()

    def _run_household(self, plan: HouseholdPlan) -> HouseholdOutcome:
        rng_factory = RngFactory(self.seed)
        seed = rng_factory.derive_seed(plan.household_id) % 1_000_000
        boosted, baseline = self._make_sessions(plan, seed)
        events: List[EventOutcome] = []
        for index, event in enumerate(plan.events):
            # An event starts at its planned time, or immediately after
            # the previous transaction if that one ran long (the baseline
            # regularly does — a 900 s upload easily overlaps the next
            # video request).
            boosted.network.advance_to(
                max(event.time_s, boosted.network.time)
            )
            baseline.network.advance_to(
                max(event.time_s, baseline.network.time)
            )
            phones = len(boosted.admissible_phones())
            if isinstance(event, VideoEvent):
                boosted_report = boosted.download_video(
                    "bipbop",
                    event.quality,
                    use_3gol=phones > 0,
                    prebuffer_fraction=None,
                )
                baseline_report = baseline.download_video(
                    "bipbop",
                    event.quality,
                    use_3gol=False,
                    prebuffer_fraction=None,
                )
                events.append(
                    EventOutcome(
                        kind="video",
                        time_s=event.time_s,
                        baseline_s=baseline_report.total_time,
                        boosted_s=boosted_report.total_time,
                        phones_used=phones,
                    )
                )
            elif isinstance(event, PhotoUploadEvent):
                photos = generate_photo_set(
                    count=event.photo_count,
                    seed=seed * 100 + index,
                )
                boosted_up = boosted.upload_photos(
                    photos, use_3gol=phones > 0
                )
                baseline_up = baseline.upload_photos(photos, use_3gol=False)
                events.append(
                    EventOutcome(
                        kind="upload",
                        time_s=event.time_s,
                        baseline_s=baseline_up.total_time,
                        boosted_s=boosted_up.total_time,
                        phones_used=phones,
                    )
                )
            else:  # pragma: no cover - workload only emits two kinds
                raise TypeError(f"unknown event {event!r}")
        onloaded = {
            name: component.cap_tracker.total_used_bytes
            if component.cap_tracker is not None
            else 0.0
            for name, component in boosted.mobile_components.items()
        }
        return HouseholdOutcome(
            household_id=plan.household_id,
            location_name=plan.location.name,
            events=tuple(events),
            onloaded_bytes_by_phone=onloaded,
        )

    def run(self) -> PilotReport:
        """Simulate the whole fleet."""
        report = PilotReport(daily_budget_bytes=self.daily_budget_bytes)
        for plan in self.plans:
            report.outcomes.append(self._run_household(plan))
        return report
