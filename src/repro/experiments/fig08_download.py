"""Fig. 8 — total video download-time reduction per location (§5.2).

For all five evaluation locations and the four configurations (one/two
phones, idle/connected start), the paper reports the percentage reduction
in downloading the *entire* 200 s video, averaged over the four qualities:
reductions span 38% to 72% (speedups ×1.5 to ×4.1), the second device
always helps (+5.9% to +26%), and connected-mode starts bring mostly
marginal gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.analysis.stats import reduction_percent
from repro.experiments import wild
from repro.experiments.fig07_prebuffer import CONFIGS, QUALITIES, config_label
from repro.experiments.registry import experiment, jsonable
from repro.netsim.topology import EVALUATION_LOCATIONS, LocationProfile
from repro.util.formatting import fmt, render_table
from repro.util.stats import RunningStats


@dataclass(frozen=True)
class DownloadReductionResult:
    """Mean % download-time reduction per (location, config)."""

    reductions: Dict[Tuple[str, str], float]
    configs: Tuple[str, ...]

    def reduction(self, location: str, config: str) -> float:
        """One bar of the figure (percent)."""
        return self.reductions[(location, config)]

    def speedup(self, location: str, config: str) -> float:
        """The same bar expressed as a speedup factor."""
        return 100.0 / (100.0 - self.reduction(location, config))

    def second_phone_benefit(self, location: str, connected: bool) -> float:
        """Percentage-point gain of the second phone."""
        mode = "H" if connected else "3G"
        return self.reduction(location, f"{mode}_2PH") - self.reduction(
            location, f"{mode}_1PH"
        )

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """One row per location."""
        locations = sorted({loc for loc, _ in self.reductions})
        rows = []
        for location in locations:
            rows.append(
                [location]
                + [
                    fmt(self.reductions[(location, config)], 1)
                    for config in self.configs
                ]
            )
        return render_table(
            ["location"] + list(self.configs),
            rows,
            title="Fig. 8 — total video download time reduction (%)",
        )


@experiment(
    "fig08",
    title="Fig. 8 — total download-time reduction per location",
    description="download-time reductions (Fig. 8)",
    paper_ref="Fig. 8",
    claims=(
        "Paper: 38-72% reductions (x1.5-x4.1).\n"
        "Measured: ~28-58% (x1.4-x2.4) — same structure (every config "
        "gains, 2nd phone always helps, H marginal, best location is "
        "the good-signal one) but compressed magnitudes: our HSPA "
        "model is calibrated to Tables 2-3, which caps what two "
        "phones can add."
    ),
    bench_params={"repetitions": 4},
    quick_params={"repetitions": 1},
    order=100,
)
def run(
    locations: Sequence[LocationProfile] = EVALUATION_LOCATIONS,
    repetitions: int = 5,
) -> DownloadReductionResult:
    """Average the per-quality reductions at each location/config."""
    config_labels = tuple(config_label(n, c) for n, c in CONFIGS)
    reductions: Dict[Tuple[str, str], float] = {}
    for location in locations:
        baselines: Dict[str, float] = {}
        for quality in QUALITIES:
            stats = RunningStats()
            for seed in range(repetitions):
                session = wild.make_session(location, n_phones=1, seed=seed)
                session.host_bipbop()
                report = session.download_video(
                    "bipbop", quality, use_3gol=False, prebuffer_fraction=None
                )
                stats.add(report.total_time)
            baselines[quality] = stats.mean
        for n_phones, connected in CONFIGS:
            per_quality = RunningStats()
            for quality in QUALITIES:
                stats = RunningStats()
                for seed in range(repetitions):
                    session = wild.make_session(
                        location,
                        n_phones=n_phones,
                        seed=seed,
                        connected_start=connected,
                    )
                    session.host_bipbop()
                    report = session.download_video(
                        "bipbop", quality, prebuffer_fraction=None
                    )
                    stats.add(report.total_time)
                per_quality.add(
                    reduction_percent(baselines[quality], stats.mean)
                )
            reductions[(location.name, config_label(n_phones, connected))] = (
                per_quality.mean
            )
    return DownloadReductionResult(
        reductions=reductions, configs=config_labels
    )
