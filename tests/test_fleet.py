"""Fleet-scale city simulation: sampling, merge determinism, CLI.

The headline contract under test is the deterministic merge
(docs/FLEET.md): the merged city-day result is byte-identical at any
shard count, pinned golden-digest style the way the trace goldens pin
the engine.
"""

import json

import numpy as np
import pytest

from repro.experiments import ext_fleet
from repro.fleet.cli import main as fleet_main
from repro.fleet.dispatcher import run_city, run_policy
from repro.fleet.population import FleetParameters, sample_population
from repro.fleet.report import FleetReport
from repro.obs import capture
from repro.util.units import mbps

#: Small-but-contended city: 16 Mbps backhaul over 128-household
#: DSLAMs (24x oversubscription, the paper's §2.1 regime) so onload,
#: cap exhaustion and permit traffic all actually happen at test size.
TEST_KW = dict(
    n_households=600,
    households_per_dslam=128,
    households_per_sector=75,
)


def _params(**overrides):
    merged = {
        **TEST_KW,
        "dslam_backhaul_bps": mbps(16.0),
        **overrides,
    }
    return FleetParameters(**merged)


class TestPopulation:
    def test_same_seed_identical(self):
        a = sample_population(_params(seed=7))
        b = sample_population(_params(seed=7))
        assert np.array_equal(a.demand, b.demand)
        assert np.array_equal(a.dslam_of, b.dslam_of)
        assert np.array_equal(a.sector_of, b.sector_of)
        assert np.array_equal(a.adoption_rank, b.adoption_rank)
        assert np.array_equal(a.sector_peak_util, b.sector_peak_util)

    def test_different_seed_differs(self):
        a = sample_population(_params(seed=7))
        b = sample_population(_params(seed=8))
        assert not np.array_equal(a.demand, b.demand)

    def test_attachments_and_demand_well_formed(self):
        params = _params()
        pop = sample_population(params)
        assert pop.demand.dtype == np.int64
        assert pop.demand.min() >= 0
        assert pop.demand.shape == (params.n_households, params.n_rounds)
        assert pop.dslam_of.min() >= 0
        assert pop.dslam_of.max() < params.n_dslams
        assert pop.sector_of.min() >= 0
        assert pop.sector_of.max() < params.n_sectors

    def test_adopters_monotone_in_fraction(self):
        """adoption=0.25 households are a strict subset of 0.5's."""
        pop = sample_population(_params())
        quarter = pop.adopters(0.25)
        half = pop.adopters(0.5)
        everyone = pop.adopters(1.0)
        assert int(quarter.sum()) == round(0.25 * len(quarter))
        assert not (quarter & ~half).any()
        assert everyone.all()


class TestDeterministicMerge:
    """The ISSUE acceptance bar: byte-identical at any partition."""

    #: Golden digest of the quick-profile ext-fleet sweep below.
    #: Integer-exact dynamics make this stable across partitions and
    #: runs; it moves only when the model itself changes (update it
    #: like a golden trace, with a commit explaining why).
    GOLDEN = (
        "3fd7ae72f1eb6f332cc6854c67f903de"
        "e8c61e44dcc2c580be4a30a1098af9bd"
    )

    @pytest.fixture(scope="class")
    def reference(self):
        return ext_fleet.run(backhaul_mbps=16.0, **TEST_KW)

    def test_reference_matches_golden(self, reference):
        assert reference.digest() == self.GOLDEN
        assert reference.findings == ()

    def test_shard_count_invariant(self, reference):
        # 3 does not divide the 8 sectors, so shards differ in size.
        assert _params().n_sectors % 3 != 0
        for n_shards in (1, 3, 8):
            run = ext_fleet.run(
                backhaul_mbps=16.0, n_shards=n_shards, **TEST_KW
            )
            assert run.digest() == reference.digest(), n_shards


class TestCityDay:
    @pytest.fixture(scope="class")
    def outcome(self):
        return run_city(_params(), adoption=1.0)

    def test_conservation(self, outcome):
        """Every byte of demand ends as ADSL, 3G, or backlog — exactly."""
        report = FleetReport.from_outcome(outcome)
        assert report.check_conservation(outcome) == []
        for run in outcome.runs.values():
            delivered = (
                run.total_adsl_bytes
                + run.total_onload_bytes
                + int(run.backlog.sum())
            )
            assert delivered == report.demand_bytes

    def test_baseline_never_onloads(self, outcome):
        base = outcome.baseline
        assert base.total_onload_bytes == 0
        assert base.cap_exhaustions == 0
        assert base.permit_requests == 0

    def test_onload_relieves_backlog(self, outcome):
        base = outcome.baseline
        multi = outcome.runs["multi-provider"]
        assert multi.total_onload_bytes > 0
        assert int(multi.backlog.sum()) < int(base.backlog.sum())

    def test_caps_are_hard(self, outcome):
        params = outcome.params
        for run in outcome.runs.values():
            assert int(run.cap_used.max()) <= params.daily_cap_bytes
            dry = run.cap_used[run.cap_exhausted]
            assert (dry == params.daily_cap_bytes).all()
        assert outcome.runs["multi-provider"].cap_exhaustions > 0

    def test_network_integrated_asks_permission(self, outcome):
        gated = outcome.runs["network-integrated"]
        assert gated.permit_requests > 0
        assert gated.permit_grants <= gated.permit_requests

    def test_round_events_at_round_starts(self):
        """Round ``r``'s ``fleet.round`` event is stamped ``r * round_s``."""
        params = _params()
        with capture() as handle:
            run_policy(params, "network-integrated", 0.5)
        rounds = handle.tracer.of_name("fleet.round")
        assert [dict(e.fields)["round"] for e in rounds] == list(
            range(params.n_rounds)
        )
        expected = [r * params.round_s for r in range(params.n_rounds)]
        assert [e.time for e in rounds] == expected

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            run_policy(_params(), "carrier-pigeon", 0.5)


class TestRegistry:
    def test_ext_fleet_registered(self):
        from repro.experiments.registry import get

        spec = get("ext-fleet")
        assert spec.bench_params["n_households"] == 100_000
        assert spec.quick_params["n_households"] == 1000


class TestCli:
    def _run(self, *argv):
        return fleet_main(list(argv))

    def test_run_and_summary_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "day.json"
        code = self._run(
            "run",
            "--households", "400",
            "--shards", "2",
            "--backhaul-mbps", "16",
            "-o", str(out),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["findings"] == []
        assert json.loads(capsys.readouterr().out) == payload

        assert self._run("summary", str(out)) == 0
        rendered = capsys.readouterr().out
        assert payload["digest"] in rendered

    def test_run_rejects_bad_adoption(self, capsys):
        assert self._run("run", "--adoption", "1.5") == 2
        assert "adoption" in capsys.readouterr().err

    def test_summary_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        assert self._run("summary", str(bad)) == 2
        capsys.readouterr()
        assert self._run("summary", str(tmp_path / "absent.json")) == 2

    def test_summary_rejects_wrong_shape(self, tmp_path, capsys):
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"hello": 1}), encoding="utf-8")
        assert self._run("summary", str(wrong)) == 2
        assert "payload" in capsys.readouterr().err
