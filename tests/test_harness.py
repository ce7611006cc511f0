import json
import math

import numpy as np
import pytest

from bellsim.harness import (
    CHSH_OPTIMAL_QUADRUPLE,
    CSV_COLUMNS,
    ReportBundle,
    RunConfig,
    chsh_schedule,
    emit_report,
    empirical_statistics,
    render_report,
    run_trials,
    write_trial_log,
)
from bellsim.quantum import bell_phi_plus, born_joint
from bellsim.spacetime import standard_scenario

OPTIMAL_SCHEDULE = chsh_schedule(*CHSH_OPTIMAL_QUADRUPLE)


def config(model="qm", trials=1000, seed=11, schedule=OPTIMAL_SCHEDULE, **kw):
    return RunConfig(model=model, schedule=schedule, trials=trials, seed=seed, **kw)


class TestRunConfig:
    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            config(trials=0)

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError, match="schedule"):
            config(schedule=())

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="model"):
            config(model="oracle")

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ValueError, match="seed"):
            config(seed=2**64)

    def test_json_round_trip(self):
        cfg = config(trials=50, seed=99)
        assert RunConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_named_schedule(self):
        cfg = RunConfig.from_json_dict({"model": "qm", "schedule": "chsh-optimal"})
        assert cfg.schedule == OPTIMAL_SCHEDULE

    def test_json_round_trip_every_field(self):
        cfg = config(
            model="lhv",
            schedule=((10.0, 37.3), (190.0, -22.5)),
            trials=7,
            seed=2**63,
            trial_log_path="trials.jsonl",
            report_path="report.csv",
            report_format="csv",
        )
        data = json.loads(json.dumps(cfg.to_json_dict()))
        assert RunConfig.from_json_dict(data) == cfg
        assert RunConfig.from_json_dict(data).to_json_dict() == cfg.to_json_dict()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="bogus_key"):
            RunConfig.from_json_dict({"model": "qm", "bogus_key": 1})

    def test_missing_model_rejected(self):
        with pytest.raises(ValueError, match="'model'"):
            RunConfig.from_json_dict({"trials": 10})

    def test_scenario_key_accepted(self):
        cfg = RunConfig.from_json_dict({"model": "qm", "scenario": "overlap"})
        assert cfg.schedule == OPTIMAL_SCHEDULE

    def test_malformed_schedule_rejected(self):
        with pytest.raises(ValueError, match="schedule"):
            RunConfig.from_json_dict({"model": "qm", "schedule": [[0.0]]})


class TestDeterminism:
    def test_identical_configs_bit_identical_logs(self):
        log1 = run_trials(config())
        log2 = run_trials(config())
        for p1, p2 in zip(log1.pairs, log2.pairs):
            assert np.array_equal(p1.signs_a, p2.signs_a)
            assert np.array_equal(p1.signs_b, p2.signs_b)

    @pytest.mark.parametrize("workers,chunk", [(1, 17), (3, 64), (4, 250)])
    def test_execution_plan_does_not_matter(self, workers, chunk):
        baseline = run_trials(config(trials=3000))
        other = run_trials(config(trials=3000), workers=workers, chunk_size=chunk)
        for p1, p2 in zip(baseline.pairs, other.pairs):
            assert np.array_equal(p1.signs_a, p2.signs_a)
            assert np.array_equal(p1.signs_b, p2.signs_b)

    def test_reports_byte_identical(self):
        r1 = render_report(empirical_statistics(run_trials(config())), "json")
        r2 = render_report(empirical_statistics(run_trials(config(), workers=2)), "json")
        assert r1 == r2

    def test_different_seeds_differ(self):
        log1 = run_trials(config(seed=1))
        log2 = run_trials(config(seed=2))
        assert any(
            not np.array_equal(p1.signs_a, p2.signs_a)
            for p1, p2 in zip(log1.pairs, log2.pairs)
        )

    def test_pairs_have_independent_streams(self):
        cfg = config(schedule=((0.0, 0.0), (0.0, 0.0)), trials=500)
        log = run_trials(cfg)
        assert not np.array_equal(log.pairs[0].signs_a, log.pairs[1].signs_a)


class TestSampling:
    def test_aligned_settings_perfectly_correlated(self):
        cfg = config(schedule=((13.0, 13.0),), trials=5000, seed=3)
        log = run_trials(cfg)
        assert np.array_equal(log.pairs[0].signs_a, log.pairs[0].signs_b)

    def test_frequencies_near_born_values(self):
        cfg = config(schedule=((0.0, 22.5),), trials=100_000, seed=5)
        stats = empirical_statistics(run_trials(cfg)).pairs[0]
        expected = born_joint(bell_phi_plus(), 0.0, 22.5)
        for freq, target in zip(stats.frequencies, (expected.vv, expected.vh,
                                                    expected.hv, expected.hh)):
            stderr = math.sqrt(target * (1.0 - target) / cfg.trials)
            assert abs(freq - target) < 4.0 * stderr + 1e-12

    def test_lhv_model_sampling(self):
        cfg = config(model="lhv", schedule=((0.0, 45.0),), trials=50_000, seed=8)
        stats = empirical_statistics(run_trials(cfg)).pairs[0]
        # responses flip deterministically 45 degrees apart
        assert stats.correlation == -1.0

    def test_scenario_coordinates_attached(self):
        log = run_trials(config(trials=5), scenario=standard_scenario())
        record = next(log.records())
        assert record.coordinates["A"] == {"t": 6.0, "x": -4.0}


class TestStatistics:
    def test_degenerate_log(self):
        cfg = config(schedule=((10.0, 10.0),), trials=200, seed=1)
        stats = empirical_statistics(run_trials(cfg)).pairs[0]
        assert stats.correlation == 1.0
        assert stats.correlation_stderr == 0.0
        assert sum(stats.frequencies) == pytest.approx(1.0, abs=1e-12)

    def test_empirical_chsh_close_to_exact(self):
        cfg = config(trials=100_000, seed=17)
        bundle = empirical_statistics(run_trials(cfg))
        assert bundle.chsh is not None
        assert abs(bundle.chsh - 2.0 * math.sqrt(2.0)) < 4.0 * bundle.chsh_stderr

    def test_lhv_empirical_chsh_near_zero(self):
        cfg = config(model="lhv", trials=100_000, seed=23)
        bundle = empirical_statistics(run_trials(cfg))
        assert abs(bundle.chsh) < 4.0 * bundle.chsh_stderr

    def test_chsh_only_for_four_pairs(self):
        cfg = config(schedule=((0.0, 22.5), (0.0, 45.0)), trials=100)
        bundle = empirical_statistics(run_trials(cfg))
        assert bundle.chsh is None

    def test_no_signal_deltas_statistically_zero(self):
        cfg = config(trials=100_000, seed=31)
        bundle = empirical_statistics(run_trials(cfg))
        assert bundle.no_signal_deltas  # schedule shares angles on both wings
        for delta in bundle.no_signal_deltas:
            assert delta.z_statistic < 4.0

    def test_fixture_model_signals(self):
        # remote settings straddle the fixture's 90-degree threshold
        cfg = config(
            model="fixture", schedule=((0.0, 45.0), (0.0, 135.0)), trials=100_000, seed=37
        )
        bundle = empirical_statistics(run_trials(cfg))
        delta = [d for d in bundle.no_signal_deltas if d.wing == "A"]
        assert delta and delta[0].delta == pytest.approx(0.25, abs=0.02)
        assert delta[0].z_statistic > 10.0


class TestMetaStatistics:
    """Coverage of the 4-sigma envelope over many independent seeds."""

    def test_frequency_coverage_100_seeds(self):
        from bellsim.quantum import as_angle

        grid = OPTIMAL_SCHEDULE + ((90.0, 112.5), (135.0, 157.5), (30.0, 30.0), (60.0, 150.0))
        expected = {
            (as_angle(a).degrees, as_angle(b).degrees): born_joint(bell_phi_plus(), a, b)
            for a, b in grid
        }
        n = 10_000
        failures = 0
        for seed in range(100):
            cfg = RunConfig(model="qm", schedule=grid, trials=n, seed=seed)
            bundle = empirical_statistics(run_trials(cfg))
            run_ok = True
            for stats in bundle.pairs:
                joint = expected[(stats.a_deg, stats.b_deg)]
                for freq, target in zip(
                    stats.frequencies, (joint.vv, joint.vh, joint.hv, joint.hh)
                ):
                    stderr = math.sqrt(target * (1.0 - target) / n)
                    if abs(freq - target) > 4.0 * stderr + 1e-12:
                        run_ok = False
            failures += not run_ok
        assert failures <= 1  # >= 99% of runs inside the envelope


class TestEmission:
    def test_csv_header_fixture(self, tmp_path):
        bundle = empirical_statistics(run_trials(config(trials=10)))
        path = tmp_path / "report.csv"
        emit_report(bundle, "csv", str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "pair_index,a_deg,b_deg,n,f_VV,f_VH,f_HV,f_HH,E,E_stderr"
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[-1].startswith("CHSH,")
        assert len(lines) == 6  # header + 4 pairs + summary

    def test_json_round_trip(self, tmp_path):
        bundle = empirical_statistics(run_trials(config(trials=10)))
        path = tmp_path / "report.json"
        emit_report(bundle, "json", str(path))
        restored = ReportBundle.from_json_dict(json.loads(path.read_text()))
        assert restored == bundle

    def test_condition_report_attachments_round_trip(self, tmp_path):
        from bellsim.locality import check_parameter_independence, default_angle_grid, quantum_model

        attachment = check_parameter_independence(
            quantum_model(), default_angle_grid(4)
        ).to_json_dict()
        bundle = empirical_statistics(run_trials(config(trials=10)),
                                      condition_reports=(attachment,))
        path = tmp_path / "report.json"
        emit_report(bundle, "json", str(path))
        restored = ReportBundle.from_json_dict(json.loads(path.read_text()))
        assert restored.condition_reports == (attachment,)
        assert restored == bundle

    def test_deterministic_bytes(self):
        bundle = empirical_statistics(run_trials(config(trials=25)))
        assert render_report(bundle, "csv") == render_report(bundle, "csv")
        assert render_report(bundle, "json") == render_report(bundle, "json")

    def test_io_failure_carries_path(self, tmp_path):
        bundle = empirical_statistics(run_trials(config(trials=5)))
        bad = tmp_path / "missing-dir" / "report.json"
        with pytest.raises(OSError, match="missing-dir"):
            emit_report(bundle, "json", str(bad))

    def test_trial_log_jsonl(self, tmp_path):
        cfg = config(trials=7, schedule=((0.0, 22.5),))
        log = run_trials(cfg)
        path = tmp_path / "trials.jsonl"
        write_trial_log(log, str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 7
        assert lines[0]["a_deg"] == 0.0 and lines[0]["b_deg"] == 22.5
        assert lines[3]["trial"] == 3
        assert lines[0]["A"] in ("V", "H")
