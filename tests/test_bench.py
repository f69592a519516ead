"""Benchmark harness: record shape, regression gate, and the CLI."""

import json

import pytest

from repro.bench import cli
from repro.bench.harness import (
    BENCH_FILENAMES,
    BENCHMARKS,
    check_records,
    load_record,
    measure_benchmark,
)
from repro.bench.scenarios import run_engine_scale


def _record(normalized, median=None, workload=None):
    """Minimal committed-record shape for gate tests."""
    rec = {
        "benchmark": "engine-scale",
        "normalized": normalized,
        "workload": workload or {"steps": 355.0},
    }
    if median is not None:
        rec["run_over_spin"] = {"median": median, "min": normalized}
    return rec


class TestScenario:
    def test_engine_scale_counters_are_deterministic(self):
        counters = run_engine_scale()
        assert counters == {
            "flows_completed": 300.0,
            "steps": 355.0,
            "final_time": 10.0,
        }


class TestMeasureBenchmark:
    def test_record_shape(self):
        record = measure_benchmark("engine-scale", repeats=1)
        assert record["benchmark"] == "engine-scale"
        assert record["kind"] == "engine-scale"
        assert record["repeats"] == 1
        assert record["normalized"] > 0.0
        assert record["run_s"]["min"] <= record["run_s"]["median"]
        assert len(record["run_s"]["samples"]) == 1
        ratios = record["run_over_spin"]
        assert ratios["min"] == record["normalized"]
        assert ratios["min"] <= ratios["median"]
        assert record["workload"]["flows_completed"] == 300.0

    def test_every_benchmark_has_a_filename(self):
        assert set(BENCH_FILENAMES) == set(BENCHMARKS)


class TestCheckRecords:
    def test_within_threshold_passes(self):
        fresh = {"engine-scale": _record(4.0)}
        committed = {"engine-scale": _record(4.0, median=4.4)}
        assert check_records(fresh, committed) == []

    def test_fresh_min_compared_to_committed_median(self):
        # Committed min is fast but the median carries the headroom:
        # fresh 5.0 vs committed median 4.4 is inside the 25% gate.
        fresh = {"engine-scale": _record(5.0)}
        committed = {"engine-scale": _record(3.0, median=4.4)}
        assert check_records(fresh, committed) == []

    def test_regression_fails(self):
        fresh = {"engine-scale": _record(8.0)}
        committed = {"engine-scale": _record(4.0, median=4.4)}
        failures = check_records(fresh, committed)
        assert len(failures) == 1 and "normalized" in failures[0]

    def test_falls_back_to_normalized_without_ratios(self):
        fresh = {"engine-scale": _record(8.0)}
        committed = {"engine-scale": _record(4.0)}  # no run_over_spin
        assert len(check_records(fresh, committed)) == 1

    def test_workload_drift_fails_even_when_fast(self):
        fresh = {"engine-scale": _record(1.0, workload={"steps": 400.0})}
        committed = {"engine-scale": _record(4.0, median=4.4)}
        failures = check_records(fresh, committed)
        assert len(failures) == 1 and "drifted" in failures[0]

    def test_missing_committed_record_fails(self):
        failures = check_records({"engine-scale": _record(4.0)}, {})
        assert len(failures) == 1 and "no committed" in failures[0]


class TestCli:
    def test_unknown_benchmark_is_usage_error(self, capsys):
        assert cli.main(["no-such-bench"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_update_then_check_roundtrip(self, tmp_path, capsys):
        args = ["engine-scale", "--repeats", "1", "--dir", str(tmp_path)]
        assert cli.main(args + ["--update"]) == 0
        path = tmp_path / BENCH_FILENAMES["engine-scale"]
        record = load_record(path)
        assert record["benchmark"] == "engine-scale"

        # A slowdown beyond the gate must fail --check: shrink the
        # committed reference so any real measurement looks inflated.
        record["run_over_spin"]["median"] = record["normalized"] / 100.0
        path.write_text(json.dumps(record), encoding="utf-8")
        assert cli.main(args + ["--check"]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_check_against_fresh_update_passes(self, tmp_path, capsys):
        args = ["engine-scale", "--repeats", "1", "--dir", str(tmp_path)]
        assert cli.main(args + ["--update", "--check"]) == 0
        assert "bench gate passed" in capsys.readouterr().out

    def test_update_preserves_baseline_provenance(self, tmp_path):
        path = tmp_path / BENCH_FILENAMES["engine-scale"]
        path.write_text(
            json.dumps({"normalized": 1.0, "baseline": {"note": "seed"}}),
            encoding="utf-8",
        )
        args = ["engine-scale", "--repeats", "1", "--dir", str(tmp_path)]
        assert cli.main(args + ["--update"]) == 0
        assert load_record(path)["baseline"] == {"note": "seed"}

    def test_load_record_rejects_non_record(self, tmp_path):
        path = tmp_path / "BENCH_bogus.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError):
            load_record(path)


class TestServiceBench:
    def test_plan_section_byte_identical_per_seed(self):
        from repro.service.benchrecord import plan_section
        from repro.service.chaos import build_plan
        from repro.service.loadgen import build_load_plan

        def derive(seed):
            return plan_section(
                seed,
                build_load_plan(seed, duration_s=10.0, rate_per_s=4.0),
                build_plan(seed, duration_s=10.0, connections=40),
            )

        one = json.dumps(derive(5), sort_keys=True)
        two = json.dumps(derive(5), sort_keys=True)
        assert one == two
        assert one != json.dumps(derive(6), sort_keys=True)

    def test_record_roundtrip(self, tmp_path):
        from repro.service.benchrecord import (
            SERVICE_BENCH_FILENAME,
            build_service_record,
            write_service_record,
        )
        from repro.service.chaos import build_plan
        from repro.service.loadgen import LoadReport, build_load_plan
        from repro.service.server import DrainReport, ServiceReport

        record = build_service_record(
            0,
            build_load_plan(0, duration_s=5.0, rate_per_s=2.0),
            build_plan(0, duration_s=5.0, connections=10),
            LoadReport(offered=3, outcomes={"completed": 3}),
            ServiceReport(flows=[], drain=None, active=0),
            DrainReport(
                in_flight=0,
                drained=0,
                aborted=0,
                elapsed_s=0.01,
                met_deadline=True,
            ),
        )
        path = write_service_record(record, tmp_path)
        assert path.name == SERVICE_BENCH_FILENAME
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == record
        assert loaded["measured"]["service"]["stranded"] == 0
        # No latency samples: percentiles are explicitly null, not 0.
        assert loaded["measured"]["latency_s"]["p50"] is None
