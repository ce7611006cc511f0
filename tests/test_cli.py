import json
import math

import pytest

from bellsim.cli import main
from bellsim.spacetime import save_scenario, standard_scenario


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return json.loads(captured.out)


class TestChshCommand:
    def test_analytic_default(self, capsys):
        out = run_cli(capsys, "chsh", "--model", "qm")
        assert out["analytic_chsh"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
        assert "empirical_chsh" not in out

    def test_empirical_echoes_seed(self, capsys):
        out = run_cli(capsys, "chsh", "--model", "qm", "--trials", "2000", "--seed", "7")
        assert out["seed"] == 7
        assert abs(out["empirical_chsh"] - out["analytic_chsh"]) < 6 * out["empirical_chsh_stderr"]

    def test_lhv_model(self, capsys):
        out = run_cli(capsys, "chsh", "--model", "lhv", "--angles", "0,45,22.5,-22.5")
        assert out["analytic_chsh"] == pytest.approx(0.0, abs=1e-6)

    def test_bad_angles_rejected(self, capsys):
        assert main(["chsh", "--angles", "1,2,3"]) == 2
        assert "expected 4" in capsys.readouterr().err


class TestChancesCommand:
    def test_builtin_overlap_layout(self, capsys):
        out = run_cli(capsys, "chances", "--scenario", "overlap", "--point", "q",
                      "--target", "eA")
        assert out["defined"] is True
        assert out["chance"] == pytest.approx(1.0, abs=1e-12)  # aligned default angles

    def test_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(
            standard_scenario(settings_in_overlap=True, angle_a=0.0, angle_b=60.0),
            str(path),
        )
        out = run_cli(capsys, "chances", "--scenario", str(path), "--point", "q",
                      "--target", "eA")
        assert out["chance"] == pytest.approx(0.25, abs=1e-12)

    def test_coordinate_point(self, capsys):
        out = run_cli(capsys, "chances", "--scenario", "overlap", "--point", "3,0",
                      "--target", "joint")
        assert out["chance"] == pytest.approx(0.5, abs=1e-12)

    def test_undefined_chance_reported(self, capsys):
        out = run_cli(capsys, "chances", "--scenario", "overlap", "--point=-50,0",
                      "--target", "eA")
        assert out["defined"] is False
        assert "preparation" in out["reason"]


class TestNosignalCommand:
    def test_quantum_holds(self, capsys):
        out = run_cli(capsys, "nosignal", "--model", "qm", "--grid", "0:180:8")
        assert out["holds"] is True
        assert out["deviation"] <= 1e-12

    def test_fixture_fails(self, capsys):
        out = run_cli(capsys, "nosignal", "--model", "fixture", "--grid", "0,45,90,135")
        assert out["holds"] is False
        assert out["deviation"] == pytest.approx(0.25, abs=1e-12)


class TestLhvBoundCommand:
    def test_bound_with_witness(self, capsys):
        out = run_cli(capsys, "lhv-bound", "--angles", "0,45,22.5,-22.5")
        assert out["max_chsh"] == 2.0
        assert out["min_chsh"] == -2.0
        assert set(out["witness_strategy"]) == {"a0", "a1", "b0", "b1"}
        assert all(v in ("V", "H") for v in out["witness_strategy"].values())


class TestSimulateCommand:
    def test_full_run(self, capsys, tmp_path):
        report = tmp_path / "report.csv"
        trials = tmp_path / "trials.jsonl"
        config = {
            "model": "qm",
            "schedule": "chsh-optimal",
            "trials": 500,
            "seed": 42,
            "report_path": str(report),
            "report_format": "csv",
            "trial_log_path": str(trials),
            "scenario": "overlap",
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = run_cli(capsys, "simulate", "--config", str(cfg_path))
        assert out["seed"] == 42
        assert report.read_text().splitlines()[0].startswith("pair_index,")
        assert len(trials.read_text().splitlines()) == 4 * 500

    def test_report_to_stdout(self, capsys, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"model": "lhv", "trials": 100, "seed": 1}))
        code = main(["simulate", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["model"] == "lhv"
        assert payload["seed"] == 1


class TestErrors:
    """Bad inputs end in one ``error:`` line on stderr and exit code 2."""

    def run_error(self, capsys, *argv) -> str:
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        return captured.err

    def write_config(self, tmp_path, config: dict) -> str:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_config_without_model(self, capsys, tmp_path):
        path = self.write_config(tmp_path, {"trials": 10})
        assert "'model'" in self.run_error(capsys, "simulate", "--config", path)

    def test_missing_config_file(self, capsys, tmp_path):
        path = str(tmp_path / "absent.json")
        assert "absent.json" in self.run_error(capsys, "simulate", "--config", path)

    def test_zero_trials(self, capsys, tmp_path):
        path = self.write_config(tmp_path, {"model": "qm", "trials": 0})
        assert "trials" in self.run_error(capsys, "simulate", "--config", path)

    def test_unknown_config_key(self, capsys, tmp_path):
        path = self.write_config(tmp_path, {"model": "qm", "trials": 10, "bogus_key": 1})
        assert "'bogus_key'" in self.run_error(capsys, "simulate", "--config", path)

    @pytest.mark.parametrize("key, value, message", [
        ("trials", 1.9, "trials must be an integer"),
        ("trials", True, "trials must be an integer"),
        ("trials", "3", "trials must be an integer"),
        ("seed", 2.5, "seed must be an integer"),
        ("schedule", [[0.0, 22.5], [True, 45.0]], "schedule angles must be numbers"),
        ("trial_log_path", 1, "trial_log_path must be a string"),
        ("report_path", 7, "report_path must be a string"),
        ("scenario", 5, "scenario must be a string"),
        ("scenario", True, "scenario must be a string"),
        ("model", ["qm"], "unknown model"),
    ])
    def test_wrongly_typed_config_value(self, capsys, tmp_path, key, value, message):
        path = self.write_config(tmp_path, {"model": "qm", "trials": 10, key: value})
        assert message in self.run_error(capsys, "simulate", "--config", path)

    def test_bad_grid_angle(self, capsys):
        assert "0,x,3" in self.run_error(capsys, "nosignal", "--grid", "0,x,3")
