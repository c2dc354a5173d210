"""Command-line entry point.

Each subcommand runs one pipeline and writes CSV/JSON artifacts (with
embedded provenance) into the output directory; exit status 0 means every
stage converged within its tolerance.
"""

from __future__ import annotations

import argparse
import re
import sys

from .model import ModelError
from .pipeline import COMMANDS, ExperimentSpec, run_pipeline


def bits(value: str):
    return value if value == "ideal" else int(value)


# argparse reads an argument that starts with "-" as an option unless it
# matches the parser's negative-number pattern, which before Python 3.13 has
# no exponent form: "--snr -1e-3" was refused as an unknown option.  No cebeam
# option starts with "-<digit>", so every such argument is a number.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """Refuses a command line with a ``ModelError``, as its subparsers do."""

    def error(self, message):
        raise ModelError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """Subcommands whose flags are stored under ``ExperimentSpec`` field names.

    Flags left out are absent from the parsed namespace, so every default
    comes from ``ExperimentSpec``.  A command takes only the flags it reads.
    """
    parser = _Parser(
        prog="cebeam",
        description="Constant-envelope / one-bit transmit beamformer design "
                    "and evaluation for few-bit-receiver MIMO radar")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument("--scenario",
                       help="scenario JSON path or built-in name (default128, desk32)")
        p.add_argument("--seed", type=int)
        if name not in ("sweep-bits", "fig2"):          # they fix it, or have none
            p.add_argument("--bits", type=bits, help="ADC resolution: 1..5 or 'ideal'")
        p.add_argument("--out", dest="out_dir", help="output directory")
        if name not in ("allocate-power", "evaluate", "fig2"):    # no iterative solver
            p.add_argument("--max-iters", type=int)
            p.add_argument("--tol", type=float)
        if name == "design-ce":
            p.add_argument("--method", help="stage-2 scheme: AMM or MM")
        if name == "evaluate":
            p.add_argument("--design", dest="design_path",
                           help="phase matrix (degrees) or +-1 sign grid, text")
        if name == "sweep-snr":
            p.add_argument("--pfa", type=float)
            p.add_argument("--trials", type=int)
            p.add_argument("--snr", dest="snr_grid_db", type=float, nargs="+")
    return parser


def main(argv=None) -> int:
    try:
        return run_pipeline(ExperimentSpec(**vars(build_parser().parse_args(argv))))
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
