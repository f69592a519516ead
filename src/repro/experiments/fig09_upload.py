"""Fig. 9 — photo-upload times, ADSL vs one and two phones (§5.2).

The paper uploads a 30-photo set (2.5 MB ± 0.74 MB) at the five evaluation
locations, phones starting from idle. The constrained ADSL uplinks
(0.58-2.77 Mbps) make the gains large: one device cuts total upload time
by 31-75% (×1.5-×4.0), two devices by 54-84% (×2.2-×6.2), and gains are
not proportional to the device count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.experiments import wild
from repro.experiments.registry import experiment, jsonable
from repro.netsim.topology import EVALUATION_LOCATIONS, LocationProfile
from repro.traces.pictures import generate_photo_set
from repro.util.formatting import fmt, render_table
from repro.util.stats import RunningStats

PHONE_COUNTS: Tuple[int, ...] = (0, 1, 2)  # 0 = ADSL alone


@dataclass(frozen=True)
class UploadTimesResult:
    """Mean upload time per (location, phone count)."""

    times: Dict[Tuple[str, int], float]

    def time(self, location: str, n_phones: int) -> float:
        """One bar of the figure (seconds)."""
        return self.times[(location, n_phones)]

    def speedup(self, location: str, n_phones: int) -> float:
        """ADSL time over 3GOL time for a phone count."""
        return self.time(location, 0) / self.time(location, n_phones)

    def reduction_percent(self, location: str, n_phones: int) -> float:
        """Percentage reduction relative to ADSL alone."""
        base = self.time(location, 0)
        return 100.0 * (base - self.time(location, n_phones)) / base

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """One row per location."""
        locations = sorted({loc for loc, _ in self.times})
        rows = [
            [location]
            + [fmt(self.times[(location, n)], 0) for n in PHONE_COUNTS]
            for location in locations
        ]
        return render_table(
            ["location", "ADSL (s)", "1PH (s)", "2PH (s)"],
            rows,
            title="Fig. 9 — total upload time of 30 photos",
        )


@experiment(
    "fig09",
    title="Fig. 9 — upload times (30 photos)",
    description="photo-upload times (Fig. 9)",
    paper_ref="Fig. 9",
    claims=(
        "Paper: ADSL 183-894 s; one device x1.5-x4.0, two devices "
        "x2.2-x6.2; gains sublinear in devices.\n"
        "Measured: ADSL ~210-1000 s; x1.4-x3.3 and x1.7-x5.5; "
        "sublinear. The closest quantitative match of the §5 "
        "experiments, since uplink is dominated by the (faithful) "
        "ADSL asymmetry."
    ),
    bench_params={"repetitions": 4},
    quick_params={"repetitions": 1},
    order=110,
)
def run(
    locations: Sequence[LocationProfile] = EVALUATION_LOCATIONS,
    repetitions: int = 5,
    photo_count: int = 30,
) -> UploadTimesResult:
    """Upload the photo set at every location with 0/1/2 phones."""
    times: Dict[Tuple[str, int], float] = {}
    for location in locations:
        for n_phones in PHONE_COUNTS:
            stats = RunningStats()
            for seed in range(repetitions):
                photos = generate_photo_set(count=photo_count, seed=seed)
                session = wild.make_session(
                    location, n_phones=max(n_phones, 1), seed=seed
                )
                report = session.upload_photos(
                    photos,
                    use_3gol=n_phones > 0,
                    max_phones=n_phones or None,
                )
                stats.add(report.total_time)
            times[(location.name, n_phones)] = stats.mean
    return UploadTimesResult(times=times)
