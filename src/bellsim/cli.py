"""Command line interface.

Subcommands:

* ``chsh``       analytic (and optionally empirical) CHSH combination
* ``chances``    point-relativized chance queries against a scenario
* ``nosignal``   no-signalling deviation of a model over an angle grid
* ``lhv-bound``  exact deterministic-strategy bound with a witness
* ``simulate``   full Monte Carlo run from a JSON config file

All output is JSON on stdout; seeds are always echoed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import chance as chance_mod
from .harness import (
    CHSH_OPTIMAL_QUADRUPLE,
    RunConfig,
    chsh_schedule,
    emit_report,
    empirical_statistics,
    render_report,
    resolve_model,
    run_trials,
    write_trial_log,
)
from .hidden_variables import deterministic_chsh_maximum, strategy_chsh, all_strategies
from .locality import chsh as analytic_chsh
from .locality import (
    check_factorizability,
    check_outcome_independence,
    check_parameter_independence,
    no_signalling_deviation,
)
from .quantum import Wing
from .spacetime import SpacetimePoint, load_scenario, standard_scenario


def _parse_angles(text: str, count: int) -> list[float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise argparse.ArgumentTypeError(f"expected {count} comma-separated angles, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad angle in {text!r}: {exc}") from exc


def _parse_grid(text: str) -> list[float]:
    """Either 'start:stop:count' (endpoints half-open) or 'a,b,c'."""
    if ":" in text:
        try:
            start, stop, count = text.split(":")
            start_f, stop_f, count_i = float(start), float(stop), int(count)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad grid spec {text!r}: {exc}") from exc
        if count_i < 1 or stop_f <= start_f:
            raise argparse.ArgumentTypeError(f"bad grid spec {text!r}")
        step = (stop_f - start_f) / count_i
        return [start_f + i * step for i in range(count_i)]
    try:
        return [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}: {exc}") from exc


def _load_or_build_scenario(spec: str):
    if spec == "overlap":
        return standard_scenario(settings_in_overlap=True)
    if spec == "late":
        return standard_scenario()
    return load_scenario(spec)


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_chsh(args: argparse.Namespace) -> int:
    a, a_prime, b, b_prime = _parse_angles(args.angles, 4)
    model = resolve_model(args.model)
    payload = {
        "model": args.model,
        "angles_deg": [a, a_prime, b, b_prime],
        "analytic_chsh": analytic_chsh(model, a, a_prime, b, b_prime),
    }
    if args.trials is not None:
        config = RunConfig(
            model=args.model,
            schedule=chsh_schedule(a, a_prime, b, b_prime),
            trials=args.trials,
            seed=args.seed,
        )
        bundle = empirical_statistics(run_trials(config, model=model))
        payload.update(
            {
                "empirical_chsh": bundle.chsh,
                "empirical_chsh_stderr": bundle.chsh_stderr,
                "trials_per_pair": args.trials,
                "seed": config.seed,
            }
        )
    _emit(payload)
    return 0


_TARGETS = {
    "eA": lambda: chance_mod.vertical_outcome(Wing.A),
    "eB": lambda: chance_mod.vertical_outcome(Wing.B),
    "joint": chance_mod.joint_vertical,
}


def _cmd_chances(args: argparse.Namespace) -> int:
    scenario = _load_or_build_scenario(args.scenario)
    if args.point in ("p", "p'", "p_prime", "q", "r"):
        point = scenario.probe(args.point)
    else:
        t, x = _parse_angles(args.point, 2)
        point = SpacetimePoint(t, x)
    target = _TARGETS[args.target]()
    payload: dict = {
        "scenario": args.scenario,
        "point": {"t": point.t, "x": point.x},
        "target": args.target,
    }
    try:
        value = chance_mod.chance_at(point, target, scenario)
    except chance_mod.NoChanceDefinedError as exc:
        payload.update({"defined": False, "reason": str(exc)})
    else:
        payload.update({"defined": True, "chance": value.value})
    _emit(payload)
    return 0


def _cmd_nosignal(args: argparse.Namespace) -> int:
    model = resolve_model(args.model)
    grid = _parse_grid(args.grid)
    deviation = no_signalling_deviation(model, grid)
    _emit(
        {
            "model": args.model,
            "grid_deg": grid,
            "deviation": deviation,
            "holds": deviation <= args.tol,
            "tolerance": args.tol,
        }
    )
    return 0


def _cmd_lhv_bound(args: argparse.Namespace) -> int:
    a, a_prime, b, b_prime = _parse_angles(args.angles, 4)
    maximum, strategy = deterministic_chsh_maximum(a, a_prime, b, b_prime)
    minimum = min(strategy_chsh(s) for s in all_strategies())
    _emit(
        {
            "angles_deg": [a, a_prime, b, b_prime],
            "max_chsh": maximum,
            "min_chsh": minimum,
            "witness_strategy": {
                "a0": strategy.a0.value,
                "a1": strategy.a1.value,
                "b0": strategy.b0.value,
                "b1": strategy.b1.value,
            },
        }
    )
    return 0


def _condition_attachments(model, schedule) -> tuple:
    """Analytic checker reports over the schedule's angles."""
    grid = sorted({angle.degrees for pair in schedule for angle in pair})
    reports = [
        check_parameter_independence(model, grid).to_json_dict(),
        check_outcome_independence(model, grid).to_json_dict(),
        check_factorizability(model, grid).to_json_dict(),
    ]
    deviation = no_signalling_deviation(model, grid)
    reports.append(
        {
            "condition": "no_signalling",
            "holds": deviation <= 1e-12,
            "max_deviation": deviation,
            "tolerance": 1e-12,
            "witness": None,
        }
    )
    return tuple(reports)


def _cmd_simulate(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    config = RunConfig.from_json_dict(data)
    scenario = None
    if data.get("scenario"):
        scenario = _load_or_build_scenario(data["scenario"])
    model = resolve_model(config.model)
    log = run_trials(config, scenario=scenario, model=model)
    bundle = empirical_statistics(
        log, condition_reports=_condition_attachments(model, config.schedule)
    )
    if config.trial_log_path:
        write_trial_log(log, config.trial_log_path)
    if config.report_path:
        emit_report(bundle, config.report_format, config.report_path)
        _emit(
            {
                "seed": config.seed,
                "model": config.model,
                "trials_per_pair": config.trials,
                "report_path": config.report_path,
                "trial_log_path": config.trial_log_path,
                "chsh": bundle.chsh,
            }
        )
    else:
        sys.stdout.write(render_report(bundle, config.report_format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Two-photon coincidence experiments: exact probabilities, "
        "relativized chances and Monte Carlo statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chsh = sub.add_parser("chsh", help="analytic and empirical CHSH combination")
    p_chsh.add_argument("--model", choices=("qm", "lhv", "fixture"), default="qm")
    p_chsh.add_argument(
        "--angles",
        default=",".join(str(x) for x in CHSH_OPTIMAL_QUADRUPLE),
        help="a,a',b,b' in degrees",
    )
    p_chsh.add_argument("--trials", type=int, default=None, help="per-pair trials for an empirical estimate")
    p_chsh.add_argument("--seed", type=int, default=0)
    p_chsh.set_defaults(func=_cmd_chsh)

    p_ch = sub.add_parser("chances", help="point-relativized chance queries")
    p_ch.add_argument(
        "--scenario",
        required=True,
        help="scenario JSON file, or 'overlap' / 'late' for the built-in layouts",
    )
    p_ch.add_argument("--point", required=True, help="p, p', q, r or 't,x'")
    p_ch.add_argument("--target", choices=tuple(_TARGETS), required=True)
    p_ch.set_defaults(func=_cmd_chances)

    p_ns = sub.add_parser("nosignal", help="no-signalling deviation over a grid")
    p_ns.add_argument("--model", choices=("qm", "lhv", "fixture"), default="qm")
    p_ns.add_argument("--grid", default="0:180:8", help="'start:stop:count' or 'a,b,c' degrees")
    p_ns.add_argument("--tol", type=float, default=1e-12)
    p_ns.set_defaults(func=_cmd_nosignal)

    p_lb = sub.add_parser("lhv-bound", help="deterministic-strategy CHSH bound")
    p_lb.add_argument(
        "--angles",
        default=",".join(str(x) for x in CHSH_OPTIMAL_QUADRUPLE),
        help="a,a',b,b' in degrees",
    )
    p_lb.set_defaults(func=_cmd_lhv_bound)

    p_sim = sub.add_parser("simulate", help="Monte Carlo run from a JSON config")
    p_sim.add_argument("--config", required=True)
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a bad input or an unreadable file ends in a
    one-line ``error:`` on stderr and exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (argparse.ArgumentTypeError, ValueError, KeyError, OSError) as exc:
        message = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        print("error: " + " ".join(message.splitlines()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
