"""Command-line surface.

Subcommands:
  pressure-check <law>        validity report, exit 0 (valid) / 1 (invalid)
  riemann --law ... --left rho,q --right rho,q [--epsilon e]
  simulate-gas <scenario>     run the configured scheme, write outputs
  powerflow <scenario>        print the converged power-flow table
  cosim <scenario>            coupled run, write all planned time series

Module errors exit nonzero and print ``error [<category>] <message>`` on
stderr. The output directory defaults to ``./out/<scenario-name>`` and can
be overridden with --outdir or the GASPOWER_OUTDIR environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .driver import run_cosim, run_gas_simulation, run_powerflow
from .errors import DomainError, GasPowerError
from .laxcurves import GasState
from .output import write_timeseries
from .pressure import check_sufficient_conditions, parse_law
from .riemann import solve_gas_power_junction, wave_thresholds
from .scenario import load_scenario


def _parse_state(text: str, option: str) -> GasState:
    try:
        rho, q = (float(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"{option}: expected 'rho,q', got {text!r}") from None
    return GasState(rho, q)


def _outdir(args, scenario_name: str) -> Path:
    if args.outdir:
        return Path(args.outdir)
    env = os.environ.get("GASPOWER_OUTDIR")
    if env:
        return Path(env) / scenario_name
    return Path("out") / scenario_name


def _cmd_pressure_check(args) -> int:
    law = parse_law(args.law)
    report = check_sufficient_conditions(law)
    print(report.summary())
    return 0 if report.valid else 1


def _cmd_riemann(args) -> int:
    law = parse_law(args.law)
    left = _parse_state(args.left, "--left")
    right = _parse_state(args.right, "--right")
    sol = solve_gas_power_junction(left, right, args.epsilon, law)
    wave_l, wave_r = sol.wave_pair
    print(f"rho*            = {sol.rho_star!r}")
    print(f"left trace      = ({sol.left_trace.rho!r}, {sol.left_trace.q!r})")
    print(f"right trace     = ({sol.right_trace.rho!r}, {sol.right_trace.q!r})")
    print(f"wave structure  = {wave_l}-{wave_r}")
    print(f"admissible      = {sol.admissible}")
    eps_ss, eps_rs, eps_max = wave_thresholds(left, right, law)
    print(f"thresholds      : s-s below {eps_ss!r}")
    print(f"                  r-s below {eps_rs!r}" if left.rho >= right.rho
          else f"                  s-r below {eps_rs!r}")
    print(f"                  invalid at {eps_max!r}")
    return 0


def _cmd_simulate_gas(args) -> int:
    scenario = load_scenario(args.scenario)
    result = run_gas_simulation(scenario)
    if result.outputs:
        paths = write_timeseries(result.outputs, _outdir(args, scenario.name),
                                 svg=args.svg)
        for p in paths:
            print(p)
    else:
        print("scenario defines no outputs; final state reached "
              f"t={result.sim.t:g}")
    return 0


def _cmd_powerflow(args) -> int:
    scenario = load_scenario(args.scenario)
    solution = run_powerflow(scenario)
    print(solution.table())
    return 0


def _cmd_cosim(args) -> int:
    scenario = load_scenario(args.scenario)
    result = run_cosim(scenario)
    if result.outputs:
        paths = write_timeseries(result.outputs, _outdir(args, scenario.name),
                                 svg=args.svg)
        for p in paths:
            print(p)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaspower",
        description="Gas-network / power-grid simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pressure-check", help="check a pressure law")
    p.add_argument("law", help="law selector, e.g. 'gamma(1,1.4)'")
    p.set_defaults(func=_cmd_pressure_check)

    p = sub.add_parser("riemann", help="solve a two-state junction problem")
    p.add_argument("--law", required=True)
    p.add_argument("--left", required=True, metavar="RHO,Q")
    p.add_argument("--right", required=True, metavar="RHO,Q")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.set_defaults(func=_cmd_riemann)

    for name, func in (("simulate-gas", _cmd_simulate_gas),
                       ("cosim", _cmd_cosim)):
        p = sub.add_parser(name)
        p.add_argument("scenario")
        p.add_argument("--outdir", default=None)
        p.add_argument("--svg", action="store_true",
                       help="also write SVG plots")
        p.set_defaults(func=func)

    p = sub.add_parser("powerflow", help="solve the scenario's power grid")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_powerflow)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GasPowerError as exc:
        print(f"error [{exc.category}] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
