"""Command-line front end: run / converge / sweep / props.

The output directory defaults to ``<config stem>_out`` in the working
directory; override with ``--outdir`` or the TWOPOINTWAVE_OUTDIR env var.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .properties import run_property_suites
from .scenario import _exit_code, converge_scenario, run_scenario, sweep_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twopointwave",
        description="Damped wave equation with two-point boundary coupling: "
        "scenario runs and verification checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario config")
    run_p.add_argument("config")
    run_p.add_argument("--outdir", default=None)

    conv_p = sub.add_parser("converge", help="mesh/step refinement study")
    conv_p.add_argument("config")
    conv_p.add_argument("--levels", type=int, default=4)
    conv_p.add_argument("--outdir", default=None)

    sweep_p = sub.add_parser("sweep", help="re-run a scenario over parameter values")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--param", required=True)
    sweep_p.add_argument("--values", nargs="+", type=float, required=True)
    sweep_p.add_argument("--outdir", default=None)

    props_p = sub.add_parser("props", help="randomized inequality suites")
    props_p.add_argument("--seed", type=int, default=0)
    props_p.add_argument("--samples", type=int, default=10_000)
    return parser


@_exit_code
def _props(seed: int, samples: int) -> int:
    if samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {samples}")
    if seed < 0:
        raise ConfigError(f"--seed must be at least 0, got {seed}")
    reports = run_property_suites(seed, samples)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{rep.name}: {status} (checked={rep.checked} violations={rep.violations} "
              f"worst_margin={rep.worst_margin:.3e})")
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "run":
        return run_scenario(args.config, outdir=args.outdir)

    if args.command == "converge":
        return converge_scenario(args.config, args.levels, outdir=args.outdir)

    if args.command == "sweep":
        return sweep_scenario(args.config, args.param, args.values, outdir=args.outdir)

    return _props(args.seed, args.samples)


if __name__ == "__main__":
    sys.exit(main())
