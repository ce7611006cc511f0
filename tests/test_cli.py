import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import bellsim
from bellsim import harness
from bellsim.cli import main
from bellsim.locality import CONDITION_TOL, ProbabilityModel, check_no_signalling, signalling_fixture_model
from bellsim.quantum import OutcomeLabel, product_polarized
from bellsim.spacetime import standard_scenario


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
        path.write_text(
            standard_scenario(settings_in_overlap=True, angle_a=0.0, angle_b=60.0).to_json())
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

    def test_zero_probability_outcome_reported(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(standard_scenario(settings_in_overlap=True, outcome_b=OutcomeLabel.H,
                                          state=product_polarized(0.0, 0.0)).to_json())
        out = run_cli(capsys, "chances", "--scenario", str(path), "--point", "q",
                      "--target", "eA")
        assert out["defined"] is False
        assert "outcome H on wing B" in out["reason"]


class TestNosignalCommand:
    def test_quantum_holds(self, capsys):
        out = run_cli(capsys, "nosignal", "--model", "qm", "--grid", "0:180:8")
        assert out["holds"] is True
        assert out["max_deviation"] <= 1e-12
        assert out["tolerance"] == CONDITION_TOL
        assert out["witness"] is None

    def test_fixture_fails(self, capsys):
        out = run_cli(capsys, "nosignal", "--model", "fixture", "--grid", "0,45,90,135")
        assert out["holds"] is False
        assert out["max_deviation"] == pytest.approx(0.25, abs=1e-12)
        assert out["witness"]["wing"] == "A"

    def test_record_is_the_condition_report(self, capsys):
        out = run_cli(capsys, "nosignal", "--model", "fixture", "--grid", "0,45,90,135")
        report = check_no_signalling(signalling_fixture_model(), [0.0, 45.0, 90.0, 135.0])
        assert out == {"model": "fixture", "grid_deg": [0.0, 45.0, 90.0, 135.0],
                       **report.to_json_dict()}


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

    @pytest.mark.parametrize("model", ["qm", "lhv", "fixture"])
    def test_command_builds_no_model(self, capsys, tmp_path, monkeypatch, model):
        """``simulate``, ``chsh`` and ``nosignal`` read the model
        ``harness.MODELS`` built at import and build none of their own."""
        built = []
        real = ProbabilityModel.__post_init__
        monkeypatch.setattr(ProbabilityModel, "__post_init__", lambda self: built.append(1) or real(self))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"model": model, "trials": 10}))
        run_cli(capsys, "simulate", "--config", str(cfg_path))
        run_cli(capsys, "chsh", "--model", model, "--trials", "10")
        run_cli(capsys, "nosignal", "--model", model)
        assert built == []


class TestOneReportPerConfig:
    """``bellsim simulate`` is ``harness.simulate``: a config has one report
    whichever entry point runs it."""

    @pytest.mark.parametrize("report_format", ["json", "csv"])
    @pytest.mark.parametrize("schedule", ["chsh-optimal", "custom"])
    @pytest.mark.parametrize("model", ["qm", "lhv", "fixture"])
    def test_library_report_is_the_cli_report(self, capsys, tmp_path, model, schedule,
                                              report_format):
        spec = {"model": model, "trials": 50, "seed": 3, "report_format": report_format}
        if schedule == "custom":
            spec["schedule"] = [[10.0, 37.3], [10.0, 101.9], [123.4, 37.3]]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(spec))
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        config = harness.RunConfig.from_json_dict(spec)
        library = harness.render_report(
            harness.empirical_statistics(harness.run_trials(config)), report_format)
        assert capsys.readouterr().out == library

    def test_simulate_writes_the_cli_files(self, capsys, tmp_path, monkeypatch):
        spec = {"model": "lhv", "trials": 50, "seed": 3, "scenario": "overlap",
                "report_path": "report.json", "trial_log_path": "trials.jsonl"}
        cli_dir, library_dir = tmp_path / "cli", tmp_path / "library"
        cli_dir.mkdir()
        library_dir.mkdir()
        (cli_dir / "config.json").write_text(json.dumps(spec))
        monkeypatch.chdir(cli_dir)
        assert main(["simulate", "--config", "config.json"]) == 0
        monkeypatch.chdir(library_dir)
        bundle = harness.simulate(harness.RunConfig.from_json_dict(spec))
        assert len(bundle.condition_reports) == 4
        for name in ("report.json", "trials.jsonl"):
            assert (cli_dir / name).read_bytes() == (library_dir / name).read_bytes()
        assert json.loads(capsys.readouterr().out)["chsh"] == bundle.chsh


#: Runs ``main`` on the command line's arguments in a fresh interpreter.
FRESH_MAIN = "import sys; from bellsim.cli import main; sys.exit(main(sys.argv[1:]))"


class TestRepeatedCalls:
    """``main`` builds its parser once per process; a call leaves nothing
    behind in it for the next."""

    def test_each_call_matches_a_fresh_process(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.json").write_text(json.dumps({"model": "qm", "trials": 50, "seed": 2}))
        (tmp_path / "bad.json").write_text(json.dumps({"trials": 5}))
        calls = [
            (["simulate", "--config", "run.json"], 0),
            (["chsh", "--trials", "200", "--seed", "4"], 0),
            (["simulate", "--config", "bad.json"], 2),
            (["simulate", "--config", "run.json"], 0),
        ]
        package_root = os.path.dirname(os.path.dirname(bellsim.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        for argv, expected_code in calls:
            code = main(argv)
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-c", FRESH_MAIN, *argv],
                cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60, check=False,
            )
            assert code == expected_code
            assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)


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

    @pytest.mark.parametrize("angles", ["nan,0,0,0", "0,inf,0,0", "0,0,1e400,0", "0,0,0,-inf"])
    def test_lhv_bound_refuses_a_non_finite_angle(self, capsys, angles):
        err = self.run_error(capsys, "lhv-bound", "--angles", angles)
        assert "analyzer angle must be finite" in err

    def test_log_and_report_on_one_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = self.write_config(tmp_path, {
            "model": "qm", "trials": 5, "trial_log_path": "out.txt",
            "report_path": "./out.txt", "report_format": "csv"})
        assert "same file" in self.run_error(capsys, "simulate", "--config", path)
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("scenario", [5, True, "", "absent.json", "malformed"])
    @pytest.mark.parametrize("with_log", [False, True])
    def test_bad_scenario_is_read_before_any_output(self, capsys, tmp_path, scenario, with_log):
        if scenario == "malformed":
            scenario = self.malformed_scenario(tmp_path, "event 0")
        config = {"model": "qm", "trials": 10, "scenario": scenario}
        if with_log:
            config["trial_log_path"] = str(tmp_path / "trials.jsonl")
        self.run_error(capsys, "simulate", "--config", self.write_config(tmp_path, config))
        assert not (tmp_path / "trials.jsonl").exists()

    @pytest.mark.parametrize("argv, message", [
        (["chances", "--scenario", "overlap", "--point", "p", "--target", "bogus"],
         "argument --target: invalid choice: 'bogus'"),
        (["chsh", "--trials", "x"], "argument --trials: invalid int value: 'x'"),
        (["simulate"], "the following arguments are required: --config"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["chsh", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ], ids=["invalid-choice", "non-integer", "missing-option", "unknown-command",
            "unknown-option", "no-command"])
    def test_parse_error(self, capsys, argv, message):
        assert message in self.run_error(capsys, *argv)

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["chsh", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: bellsim chsh")

    def test_bad_grid_angle(self, capsys):
        assert "0,x,3" in self.run_error(capsys, "nosignal", "--grid", "0,x,3")

    def test_grid_too_large_for_memory(self, capsys):
        """A 100,000-angle qm grid's table is refused at its first large
        allocation, which numpy raises as a ``MemoryError``."""
        err = self.run_error(capsys, "nosignal", "--grid", "0:180:100000")
        assert err.startswith("error: out of memory: ")

    @pytest.mark.parametrize("point", ["1,x", "zz", "1,2,3"])
    def test_bad_point(self, capsys, point):
        err = self.run_error(capsys, "chances", "--scenario", "overlap", f"--point={point}",
                             "--target", "eA")
        assert "a probe name (p, p', q, r) or 't,x'" in err
        assert repr(point) in err and "angle" not in err

    @staticmethod
    def malformed_scenario(tmp_path, part: str) -> str:
        data = standard_scenario().to_json_dict()
        if part == "events":
            data["events"] = 5
        elif part == "event 0":
            data["events"][0]["t"] = None
        elif part == "event 1":
            data["events"][1]["kind"]["angle_deg"] = True
        elif part == "event kind":
            data["events"][2]["kind"]["type"] = "bogus"
        elif part == "probes":
            data["probes"] = []
        elif part == "state":
            data["state"]["matrix_real"][0][0] = "0.5"
        elif part == "NaN state":
            # json writes and reads NaN; eigvalsh never sees the upper triangle
            data["state"]["matrix_real"][0][1] = math.nan
        else:
            data = [1]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("part, message", [
        ("events", "malformed scenario events"),
        ("event 0", "malformed scenario event 0"),
        ("event 1", "malformed scenario event 1: expected a number, got True"),
        ("event kind", "malformed scenario event 2: unknown event kind 'bogus'"),
        ("state", "malformed scenario state: expected a number, got '0.5'"),
        ("NaN state", "malformed scenario state: photon pair state: non-finite entry (nan+0j)"),
        ("probes", "malformed scenario probes"),
        ("top-level", "scenario must be a JSON object"),
    ])
    def test_malformed_scenario_file(self, capsys, tmp_path, part, message):
        scenario = self.malformed_scenario(tmp_path, part)
        assert message in self.run_error(capsys, "chances", "--scenario", scenario,
                                         "--point", "q", "--target", "eA")
        config = self.write_config(tmp_path, {"model": "qm", "trials": 10, "scenario": scenario})
        assert message in self.run_error(capsys, "simulate", "--config", config)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["events"][1].update(id="o"), "event ids are not unique"),
        (lambda d: d["events"].append({**d["events"][1], "id": "setting-a2"}),
         "duplicate setting event for wing A"),
        (lambda d: d["events"].append({**d["events"][0], "id": "o2"}),
         "at most one preparation event"),
        (lambda d: moved(d["events"][1], 7.0, -4.0),
         "setting for wing A must causally precede its outcome"),
        (lambda d: moved(d["events"][4], 16.0, 4.0),
         "the two outcome events must be spacelike separated"),
        (lambda d: moved(d["probes"]["p"], 20.0, 0.0),
         "probe p must be spacelike to the wing-B outcome"),
        (lambda d: moved(d["probes"]["p_prime"], 20.0, 0.0),
         "probe p' must be spacelike to the wing-A outcome"),
        (lambda d: moved(d["probes"]["q"], 5.0, 4.0),
         "probe q must have the wing-B outcome in its past"),
        (lambda d: moved(d["probes"]["q"], 20.0, 0.0),
         "probe q must not have the wing-A outcome in its past"),
        (lambda d: moved(d["probes"]["r"], -1.0, 0.0),
         "probe r must lie in the preparation's causal future"),
        (lambda d: moved(d["probes"]["r"], 20.0, 0.0), "probe r must not see the wing-A outcome"),
    ], ids=["duplicate-id", "second-setting", "second-preparation", "late-setting",
            "timelike-outcomes", "p", "p-prime", "q-blind", "q-sees-a",
            "r-before-preparation", "r-sees-outcome"])
    def test_invalid_scenario_file(self, capsys, tmp_path, edit, message):
        data = standard_scenario(settings_in_overlap=True).to_json_dict()
        edit(data)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert message in self.run_error(capsys, "chances", "--scenario", str(path),
                                         "--point", "q", "--target", "eA")


def moved(entry: dict, t: float, x: float) -> None:
    """Move a scenario-file point to (t, x); it loads its null coordinates from them."""
    entry.update(t=t, x=x)
    del entry["u"], entry["w"]


# -- emission golden bytes -------------------------------------------------------

#: Run specs for the emitted bytes that ``GOLDEN`` in test_model_kernel.py
#: does not reach: a four-pair CSV report file (with its CHSH summary
#: row), report-only stdout in both formats, ``bellsim chsh`` with an
#: empirical estimate, and ``bellsim lhv-bound``. Each spec is (argv,
#: simulate config or None, the file whose bytes are digested or None for
#: stdout).
EMISSION_CASES = {
    "simulate/qm/csv-file": (
        {"model": "qm", "trials": 300, "seed": 3, "report_format": "csv",
         "report_path": "report.csv"}, "report.csv"),
    "simulate/fixture/csv-file": (
        {"model": "fixture", "trials": 300, "seed": 1099511627793, "report_format": "csv",
         "report_path": "report.csv"}, "report.csv"),
    "simulate/qm/json-stdout": ({"model": "qm", "trials": 300, "seed": 5}, None),
    "simulate/fixture/json-stdout": ({"model": "fixture", "trials": 300, "seed": 7}, None),
    "simulate/lhv/csv-stdout": (
        {"model": "lhv", "trials": 300, "seed": 3, "report_format": "csv"}, None),
    "simulate/qm/custom/csv-stdout": (
        {"model": "qm", "trials": 300, "seed": 5, "report_format": "csv",
         "schedule": [[10.0, 37.3], [10.0, 101.9], [123.4, 37.3]]}, None),
    "simulate/lhv/custom/json-stdout": (
        {"model": "lhv", "trials": 300, "seed": 3,
         "schedule": [[10.0, 37.3], [10.0, 101.9], [123.4, 37.3]]}, None),
    "chsh/qm": (["chsh", "--trials", "400", "--seed", "9"], None),
    "chsh/lhv": (["chsh", "--model", "lhv", "--trials", "400", "--seed", "1099511627793"], None),
    "chsh/fixture": (["chsh", "--model", "fixture", "--angles", "10,101.9,37.3,-5",
                      "--trials", "400", "--seed", "3"], None),
    **{
        f"chances/{layout}/{probe}/{target}": (
            ["chances", "--scenario", layout, "--point", probe, "--target", target], None)
        for layout in ("overlap", "late") for probe in ("q", "r") for target in ("eA", "joint")
    },
    "chances/late/undefined": (
        ["chances", "--scenario", "late", "--point=-50,0", "--target", "eA"], None),
    "lhv-bound/default": (["lhv-bound"], None),
    "lhv-bound/custom": (["lhv-bound", "--angles", "10,101.9,37.3,-5"], None),
}

#: SHA-256 digests of the bytes each ``EMISSION_CASES`` run emits, captured
#: before the report records took their serializers from their own fields.
#: simulate/fixture/json-stdout was re-captured when the no-signalling
#: attachment gained its witness, the only change to those bytes. The
#: ``chances/*`` entries were captured before interventions became edits
#: of a scenario instead of rebuilds; plain ``chances`` output keeps them.
#: The ``lhv-bound/*`` entries were captured while the command still
#: spelled its witness dict and enumerated the minimum on each call.
EMISSION_GOLDEN = {
    "chances/late/q/eA": "d55164b3e73b48b65bb8d3bbae0038db4d14c7b5d94dc5affca75bcabcb56147",
    "chances/late/q/joint": "167e07bcc45211508054125bf0f3b98c1b45e3e72d745cec1c69c9fae86afcd6",
    "chances/late/r/eA": "d327e02961d5fed280038e7900a683e94bbbf24e451b7f49026a0555d3a8c7b2",
    "chances/late/r/joint": "0128278f21cf6911f5dc85329fb858280475ae8ac8d18473204c96b08f0f6793",
    "chances/late/undefined": "b82156c0cdf85761d2143ef7a90ae98ed66ea9543ab93b89bdaefc760f5d4eb1",
    "chances/overlap/q/eA": "bd3d8357e18d6ec0aed9255b53c19d71de297bdd3f627fde7d839e81feb181d6",
    "chances/overlap/q/joint": "dcdc4fcb5ebd0558f8ab19d7a292857e771ac2515f1d12ae37b440ceba40b2dd",
    "chances/overlap/r/eA": "753e3df460059b33bbd0e68255a55a96e17398ff81df55a10316d9d391db4146",
    "chances/overlap/r/joint": "81e5a6e57f272a3c6878ff7f0f2a11cdfe7ba45db43b152764f1de6beca40061",
    "chsh/fixture": "19f2443015691cc73fe8c7d955c52a4afa4b9c3f6b8eacf0f2cb8c2bd75beb58",
    "chsh/lhv": "2e6641804f35fcdb028b1854b4433a2a5b3394e93a62c33b022650b680c94ba6",
    "chsh/qm": "1350625e5f6cbbb6ab7700778de1b01ffb11aba389cacd39db936de82d08e075",
    "lhv-bound/custom": "d3ce12e2c337f4d3f879fe2e4021cfbcae8fc7a8e1141e433f688318735f0346",
    "lhv-bound/default": "4373599e62cf1cb8402225bbbd56ca70d15bd49e9303b0366691c20356a4b559",
    "simulate/fixture/csv-file": "3094469f086a62a7c7945051f2ffb5b5cfa16e79bfeec14fcde1c066e1be4b22",
    "simulate/fixture/json-stdout": "78b3f240994e63e7842849ea0d0dcd1a330c676a956a93cb7c07f55e0a2495f8",
    "simulate/lhv/csv-stdout": "820b6b9f01078e7ce54279ec6797b89e4555e08c975bfa7c4f6553d00c2f9e42",
    "simulate/lhv/custom/json-stdout": "3dc7f6f8075f9e35ef557bd0d7f1f2e15461c0284c7a87786b5c9b036e2e1176",
    "simulate/qm/csv-file": "8f156c2a87136b6cca80e553e2a83f5e1da371c67564ab382945cd8a1931217e",
    "simulate/qm/custom/csv-stdout": "b0f2606a01090de373b38a55d259d84b4f87f1eb8090817d86fe9d6b78ba7227",
    "simulate/qm/json-stdout": "019113bdbb2fa1b86d674296caf05b3d569c887e5a246339dfca3b3865a58667",
}


@pytest.mark.parametrize("key", sorted(EMISSION_CASES))
def test_emitted_bytes_are_pinned(key, tmp_path, monkeypatch, capsys):
    spec, path = EMISSION_CASES[key]
    monkeypatch.chdir(tmp_path)
    if isinstance(spec, dict):
        (tmp_path / "config.json").write_text(json.dumps(spec))
        argv = ["simulate", "--config", "config.json"]
    else:
        argv = spec
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    data = out if path is None else (tmp_path / path).read_bytes()
    assert hashlib.sha256(data).hexdigest() == EMISSION_GOLDEN[key]
