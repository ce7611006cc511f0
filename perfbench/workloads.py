"""The four benchmark workloads.

Every request of a workload has the same shape; only its seeded content
(seeds, angles, states, outcomes) changes. A workload object gives

* ``inputs(i)``: the plain data of request ``i``, drawn from a generator
  keyed by (workload seed, i), so any run sees the same request i;
* ``stage(data)``: writes the files the request reads (untimed);
* ``request(data)``: the timed part, which calls into bellsim only
  through ``bellsim.cli.main`` and the public library functions;
* ``check(data, out)``: independent checks (untimed); returns how many
  of the request's ``ops`` operations failed, and raises
  ``checks.CheckError`` when an output is wrong.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os

import numpy as np

import bellsim
from bellsim import cli
from bellsim.harness import RunConfig, run_trials
from bellsim.hidden_variables import DEFAULT_LAMBDA_NODES

import checks
from checks import require

#: Angles of bellsim's "chsh-optimal" schedule, as pairs (a, b).
CHSH_OPTIMAL_PAIRS = [(0.0, 22.5), (0.0, 157.5), (45.0, 22.5), (45.0, 157.5)]


def request_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def chsh_pairs(a, a_prime, b, b_prime) -> list[tuple[float, float]]:
    return [(a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime)]


def simulate(config_path: str) -> dict:
    """One ``bellsim simulate`` in-process, with its stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["simulate", "--config", config_path])
    return {"code": code, "stdout": out.getvalue()}


def write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def check_simulate_summary(result: dict, seed: int, report: dict) -> None:
    """Exit code 0, and the printed summary echoes the seed and the
    report's CHSH."""
    require(result["code"] == 0, f"simulate exited with {result['code']}")
    summary = json.loads(result["stdout"])
    require(summary["seed"] == seed, f"simulate echoed seed {summary['seed']}, expected {seed}")
    require(summary["chsh"] == report["chsh"], "printed CHSH differs from the report's")


class Workload:
    name = ""
    ops = 1

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def path(self, suffix: str) -> str:
        return os.path.join(self.work_dir, f"{self.name}-{suffix}")

    def stage(self, data: dict) -> None:
        pass


class SimulateLog(Workload):
    """``bellsim simulate`` for qm, CHSH-optimal schedule, overlap
    scenario, with a JSON-lines trial log and a CSV report."""

    name = "simulate-log"
    TRIALS = 2000

    def inputs(self, index: int) -> dict:
        rng = request_rng(self.seed, index)
        return {"seed": int(rng.integers(0, 2**63))}

    def stage(self, data: dict) -> None:
        write_json(self.path("config.json"), {
            "model": "qm", "schedule": "chsh-optimal", "trials": self.TRIALS,
            "seed": data["seed"], "report_path": self.path("report.csv"),
            "report_format": "csv", "trial_log_path": self.path("trials.jsonl"),
            "scenario": "overlap",
        })

    def request(self, data: dict) -> dict:
        return simulate(self.path("config.json"))

    def check(self, data: dict, out: dict) -> int:
        csv_text = read_text(self.path("report.csv"))
        _, summary = checks.read_csv_report(csv_text)
        check_simulate_summary(out, data["seed"], summary)
        checks.check_trial_log(
            read_text(self.path("trials.jsonl")), csv_text, seed=data["seed"],
            pairs=CHSH_OPTIMAL_PAIRS, n=self.TRIALS,
            coordinates={"A": {"t": 6.0, "x": -4.0}, "B": {"t": 6.0, "x": 4.0}},
        )
        return 0


class McSweep(Workload):
    """Three report-only ``bellsim simulate`` runs for qm at growing trial
    counts; the schedule is the CHSH-optimal one turned by a random
    common angle, which leaves every correlation unchanged."""

    name = "mc-sweep"
    LEGS = (10_000, 100_000, 250_000)
    ops = len(LEGS)
    RECHECK_SHARE = 0.1

    def inputs(self, index: int) -> dict:
        rng = request_rng(self.seed, index)
        turn = float(rng.uniform(0.0, 180.0))
        return {
            "pairs": [((a + turn) % 180.0, (b + turn) % 180.0) for a, b in CHSH_OPTIMAL_PAIRS],
            "seeds": [int(s) for s in rng.integers(0, 2**63, size=len(self.LEGS))],
            "recheck": bool(rng.random() < self.RECHECK_SHARE),
            "chunk": 2 * int(rng.integers(500, 50_000)) + 1,
        }

    def config(self, data: dict, leg: int) -> dict:
        return {
            "model": "qm", "schedule": [list(p) for p in data["pairs"]],
            "trials": self.LEGS[leg], "seed": data["seeds"][leg],
            "report_path": self.path(f"report-{leg}.json"), "report_format": "json",
        }

    def stage(self, data: dict) -> None:
        for leg in range(len(self.LEGS)):
            write_json(self.path(f"config-{leg}.json"), self.config(data, leg))

    def request(self, data: dict) -> dict:
        return {"legs": [simulate(self.path(f"config-{leg}.json")) for leg in range(len(self.LEGS))]}

    def check(self, data: dict, out: dict) -> int:
        for leg, result in enumerate(out["legs"]):
            config = self.config(data, leg)
            report = json.loads(read_text(config["report_path"]))
            check_simulate_summary(result, config["seed"], report)
            checks.check_qm_report(report, pairs=data["pairs"], n=config["trials"])
            if data["recheck"]:
                again = run_trials(RunConfig.from_json_dict(config), workers=2,
                                   chunk_size=data["chunk"])
                for pair, reported in zip(again.pairs, report["pairs"]):
                    counts = [int(np.count_nonzero((pair.signs_a == sa) & (pair.signs_b == sb)))
                              for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
                    require(counts == reported["counts"],
                            f"leg {leg} pair {pair.pair_index}: workers=2, chunk={data['chunk']} "
                            f"gave counts {counts}, the report {reported['counts']}")
        return 0


def random_state(rng: np.random.Generator) -> np.ndarray:
    """A random pure state, or a random full-rank mixed one, as a 4x4
    density matrix."""
    if rng.random() < 0.5:
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = np.outer(v, v.conj())
    else:
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
    return rho / np.trace(rho).real


class ModelConditions(Workload):
    """A report-only ``bellsim simulate --model lhv``, then the three
    checkers, no-signalling and CHSH on a fresh quantum model of a random
    state over a wider grid."""

    name = "model-conditions"
    ops = 2
    LHV_TRIALS = 1000
    GRID = 24

    def inputs(self, index: int) -> dict:
        rng = request_rng(self.seed, index)
        theta = float(rng.uniform(0.0, 180.0))
        delta = float(rng.uniform(5.0, 40.0))
        return {
            # a = b and a' = b': four pairs over only two distinct axes,
            # which keeps the hidden-variable table at 2 x 2 x 2048 cells
            "lhv_quad": (theta, theta + delta, theta, theta + delta),
            "lhv_seed": int(rng.integers(0, 2**63)),
            "rho": random_state(rng),
            "grid": sorted(float(x) for x in rng.uniform(0.0, 180.0, size=self.GRID)),
            "quad": tuple(float(x) for x in rng.uniform(0.0, 180.0, size=4)),
        }

    def stage(self, data: dict) -> None:
        write_json(self.path("config.json"), {
            "model": "lhv", "schedule": [list(p) for p in chsh_pairs(*data["lhv_quad"])],
            "trials": self.LHV_TRIALS, "seed": data["lhv_seed"],
            "report_path": self.path("report.json"), "report_format": "json",
        })

    def request(self, data: dict) -> dict:
        lhv = simulate(self.path("config.json"))
        model = bellsim.quantum_model(bellsim.PhotonPairState(data["rho"]))
        grid = data["grid"]
        return {
            "lhv": lhv,
            "parameter_independence": bellsim.check_parameter_independence(model, grid).to_json_dict(),
            "outcome_independence": bellsim.check_outcome_independence(model, grid).to_json_dict(),
            "factorizability": bellsim.check_factorizability(model, grid).to_json_dict(),
            "no_signalling": bellsim.no_signalling_deviation(model, grid),
            "chsh": bellsim.chsh(model, *data["quad"]),
        }

    def check(self, data: dict, out: dict) -> int:
        report = json.loads(read_text(self.path("report.json")))
        check_simulate_summary(out["lhv"], data["lhv_seed"], report)
        analytic = bellsim.chsh(bellsim.builtin_vector_model(), *data["lhv_quad"])
        checks.check_lhv_report(report, analytic, quad=data["lhv_quad"], n=self.LHV_TRIALS,
                                nodes=DEFAULT_LAMBDA_NODES)
        checks.check_quantum_conditions(out, data["rho"], data["grid"], data["quad"])
        return 0


E_A = bellsim.vertical_outcome(bellsim.Wing.A)
TARGETS = {
    "eA": E_A,
    "eB": bellsim.vertical_outcome(bellsim.Wing.B),
    "joint": bellsim.joint_vertical(),
}

#: The fixed on-cone build: the overlap layout scaled by 2**10 with probe q
#: moved onto wing B's outcome light cone (an exactly lightlike, dyadic
#: offset), boosted by a fixed rapidity. Its causal structure is valid, so
#: the build must succeed; today the absolute cone tolerance in
#: ``spacetime.causal_relation`` rejects it. It does not depend on the seed.
ON_CONE_SCALE = 2.0**10
ON_CONE_Q = (7.0, 5.0)
ON_CONE_RAPIDITY = 5.0 / 32.0
ON_CONE_ANGLES = {"a": 0.0, "b": 22.5}


def boosted_scenario(scenario, rapidity: float, scale: float = 1.0, q=None):
    def move(point):
        return bellsim.SpacetimePoint(point.t * scale, point.x * scale).boosted(rapidity)

    return bellsim.Scenario(
        state=scenario.state,
        events=tuple(dataclasses.replace(ev, point=move(ev.point)) for ev in scenario.events),
        p=move(scenario.p), p_prime=move(scenario.p_prime),
        q=move(scenario.q if q is None else bellsim.SpacetimePoint(*q)), r=move(scenario.r),
    )


def query_battery(scenario, betas) -> dict:
    """Every chance query of one request on one scenario."""
    chances = {}
    for probe in checks.PROBES:
        point = scenario.probe(probe)
        for name, target in TARGETS.items():
            try:
                chances[probe, name] = bellsim.chance_at(point, target, scenario).value
            except bellsim.NoChanceDefinedError:
                chances[probe, name] = None
    estimates = []
    for beta in betas:
        intervention = bellsim.set_angle_intervention(scenario, bellsim.Wing.B, beta)
        try:
            estimates.append(bellsim.estimated_chance(scenario.p_prime, E_A, intervention, scenario).value)
        except bellsim.NoChanceDefinedError:
            estimates.append(None)
    depends = {}
    for cause, event in (
        ("preparation", scenario.preparation_event()),
        ("setting-a", scenario.setting_event(bellsim.Wing.A)),
        ("setting-b", scenario.setting_event(bellsim.Wing.B)),
        ("outcome-b", scenario.outcome_event(bellsim.Wing.B)),
    ):
        verdict = bellsim.causally_depends(E_A, event, scenario)
        witness = None if verdict.witness is None else tuple(c.value for c in verdict.witness)
        depends[cause] = (verdict.kind.value, witness)
    readings = bellsim.local_causality_readings(scenario)
    return {
        "chances": chances,
        "estimates": estimates,
        "depends": depends,
        "readings": {
            "conditional_equality_holds": readings.conditional_equality_holds,
            "unconditional": readings.unconditional,
            "conditional_on_remote": readings.conditional_on_remote,
            "fixed_point_holds": readings.fixed_point_holds,
            "fixed_point_samples": [list(s) for s in readings.fixed_point_samples],
        },
    }


class ChanceQueries(Workload):
    """Chance queries on both canonical layouts with random angles and
    outcomes, each also boosted, plus the fixed on-cone build."""

    name = "chance-queries"
    LAYOUTS = ("overlap", "late")
    SWEEP = 8
    #: four query batteries and the on-cone build
    ops = 2 * len(LAYOUTS) + 1

    def inputs(self, index: int) -> dict:
        rng = request_rng(self.seed, index)
        data = {}
        for layout in self.LAYOUTS:
            offset = float(rng.uniform(0.0, 180.0 / self.SWEEP))
            data[layout] = {
                "angles": {"a": float(rng.uniform(0.0, 180.0)), "b": float(rng.uniform(0.0, 180.0))},
                "outcomes": {w: "VH"[int(rng.integers(2))] for w in ("a", "b")},
                "rapidity": float(rng.uniform(-2.0, 2.0)),
                "betas": [offset + k * 180.0 / self.SWEEP for k in range(self.SWEEP)] + [None],
            }
        return data

    def request(self, data: dict) -> dict:
        out = {}
        for layout in self.LAYOUTS:
            d = data[layout]
            scenario = bellsim.standard_scenario(
                settings_in_overlap=layout == "overlap",
                angle_a=d["angles"]["a"], angle_b=d["angles"]["b"],
                outcome_a=bellsim.OutcomeLabel(d["outcomes"]["a"]),
                outcome_b=bellsim.OutcomeLabel(d["outcomes"]["b"]),
            )
            out[layout] = query_battery(scenario, d["betas"])
            boosted = boosted_scenario(scenario, d["rapidity"])
            out[layout + "-boosted"] = query_battery(boosted, d["betas"])
        base = bellsim.standard_scenario(
            settings_in_overlap=True, angle_a=ON_CONE_ANGLES["a"], angle_b=ON_CONE_ANGLES["b"])
        try:
            on_cone = boosted_scenario(base, ON_CONE_RAPIDITY, ON_CONE_SCALE, ON_CONE_Q)
        except ValueError as exc:
            out["on-cone"] = {"error": str(exc)}
        else:
            out["on-cone"] = {"chance": bellsim.chance_at(on_cone.q, E_A, on_cone).value}
        return out

    def check(self, data: dict, out: dict) -> int:
        for layout in self.LAYOUTS:
            d = data[layout]
            checks.check_chance_queries(out[layout], layout, d["angles"], d["outcomes"], d["betas"])
            checks.check_boosted_copy(out[layout], out[layout + "-boosted"], layout)
        if "error" in out["on-cone"]:
            return 1
        want = checks.phi_plus_conditional(ON_CONE_ANGLES["a"], ON_CONE_ANGLES["b"], "V", "V")
        require(checks.close(out["on-cone"]["chance"], want),
                f"on-cone scenario: chance of eA at q is {out['on-cone']['chance']}, expected {want}")
        return 0


WORKLOADS = {w.name: w for w in (SimulateLog, McSweep, ModelConditions, ChanceQueries)}
