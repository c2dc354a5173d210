"""Command-line entry point.

Each subcommand runs one pipeline and writes CSV/JSON artifacts (with
embedded provenance) into the output directory; exit status 0 means every
stage converged within its tolerance.
"""

from __future__ import annotations

import argparse
import sys

from .model import ModelError
from .pipeline import COMMANDS, ExperimentSpec, run_pipeline


def _parse_bits(value: str):
    if value == "ideal":
        return "ideal"
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    """Subcommands whose flags are stored under ``ExperimentSpec`` field names.

    Flags left out are absent from the parsed namespace, so every default
    comes from ``ExperimentSpec``.
    """
    parser = argparse.ArgumentParser(
        prog="cebeam",
        description="Constant-envelope / one-bit transmit beamformer design "
                    "and evaluation for few-bit-receiver MIMO radar")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--scenario",
                       help="scenario JSON path or built-in name (default128, desk32)")
        p.add_argument("--seed", type=int)
        p.add_argument("--bits", type=_parse_bits, help="ADC resolution: 1..5 or 'ideal'")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--max-iters", type=int)
        p.add_argument("--tol", type=float)
        if name == "design-ce":
            p.add_argument("--method", choices=("AMM", "MM"))
        if name == "evaluate":
            p.add_argument("--design", dest="design_path",
                           help="phase matrix (degrees) or +-1 sign grid, text")
        if name == "sweep-snr":
            p.add_argument("--pfa", type=float)
            p.add_argument("--trials", type=int)
            p.add_argument("--snr", dest="snr_grid_db", type=float, nargs="+")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_pipeline(ExperimentSpec(**vars(args)))
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
