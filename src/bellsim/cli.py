"""Command line interface.

Subcommands:

* ``chsh``       analytic (and optionally empirical) CHSH combination
* ``chances``    point-relativized chance queries against a scenario
* ``nosignal``   no-signalling report of a model over an angle grid
* ``lhv-bound``  exact deterministic-strategy bound with a witness
* ``simulate``   full Monte Carlo run from a JSON config file

All output is JSON on stdout; seeds are always echoed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import chance as chance_mod
from .harness import (
    CHSH_OPTIMAL_QUADRUPLE,
    MODEL_BUILDERS,
    RunConfig,
    chsh_schedule,
    render_report,
    simulate,
)
from .hidden_variables import CHSH_MINIMUM, deterministic_chsh_maximum
from .locality import check_no_signalling
from .locality import chsh as analytic_chsh
from .quantum import Wing
from .spacetime import SpacetimePoint, load_scenario


def _parse_angles(text: str) -> list[float]:
    """The four CHSH angles a,a',b,b' in degrees."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected 4 comma-separated angles, got {text!r}")
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


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_chsh(args: argparse.Namespace) -> int:
    a, a_prime, b, b_prime = _parse_angles(args.angles)
    model = MODEL_BUILDERS[args.model]()
    payload = {
        "model": args.model,
        "angles_deg": [a, a_prime, b, b_prime],
        "analytic_chsh": analytic_chsh(model, a, a_prime, b, b_prime),
    }
    if args.trials is not None:
        schedule = chsh_schedule(a, a_prime, b, b_prime)
        # a CSV run takes the plug-in statistics alone: the payload shows no condition report
        bundle = simulate(RunConfig(args.model, schedule, args.trials, args.seed, report_format="csv"))
        payload.update(
            {
                "empirical_chsh": bundle.chsh,
                "empirical_chsh_stderr": bundle.chsh_stderr,
                "trials_per_pair": args.trials,
                "seed": args.seed,
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
    scenario = load_scenario(args.scenario)
    try:
        point = scenario.probe(args.point)
    except KeyError:
        try:
            t, x = (float(part) for part in args.point.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a probe name (p, p', q, r) or 't,x', got {args.point!r}"
            ) from None
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
    grid = _parse_grid(args.grid)
    report = check_no_signalling(MODEL_BUILDERS[args.model](), grid)
    _emit({"model": args.model, "grid_deg": grid, **report.to_json_dict()})
    return 0


def _cmd_lhv_bound(args: argparse.Namespace) -> int:
    a, a_prime, b, b_prime = _parse_angles(args.angles)
    maximum, strategy = deterministic_chsh_maximum(a, a_prime, b, b_prime)
    _emit({"angles_deg": [a, a_prime, b, b_prime], "max_chsh": maximum,
           "min_chsh": CHSH_MINIMUM, "witness_strategy": strategy.to_json_dict()})
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as handle:
        config = RunConfig.from_json_dict(json.load(handle))
    bundle = simulate(config)
    if config.report_path:
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


class _Parser(argparse.ArgumentParser):
    """Raises its parse errors for ``main`` to report like any bad input."""

    def error(self, message: str):
        raise argparse.ArgumentTypeError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``bellsim`` parser, built once per process: parsing leaves it as
    it was, and each call returns a fresh namespace."""
    parser = _Parser(
        prog="bellsim",
        description="Two-photon coincidence experiments: exact probabilities, "
        "relativized chances and Monte Carlo statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chsh = sub.add_parser("chsh", help="analytic and empirical CHSH combination")
    p_chsh.add_argument("--model", choices=tuple(MODEL_BUILDERS), default="qm")
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

    p_ns = sub.add_parser("nosignal", help="no-signalling condition over a grid")
    p_ns.add_argument("--model", choices=tuple(MODEL_BUILDERS), default="qm")
    p_ns.add_argument("--grid", default="0:180:8", help="'start:stop:count' or 'a,b,c' degrees")
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
    """Run one subcommand; a bad input, a parse error included, an
    unreadable file or a request too large for memory ends in a one-line
    ``error:`` on stderr and exit code 2."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (argparse.ArgumentTypeError, ValueError, KeyError, OSError, MemoryError) as exc:
        if isinstance(exc, KeyError):
            message = f"missing key {exc}"
        elif isinstance(exc, MemoryError):
            message = f"out of memory: {exc}"
        else:
            message = str(exc)
        print("error: " + " ".join(message.splitlines()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
