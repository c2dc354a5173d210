#!/usr/bin/env python3
"""Record the reference quality numbers the benchmark checks against.

    python3 perfbench/make_reference.py --seeds 0-11 --seconds 30 1

For every workload and run seed this runs the run's commands (untimed)
with the code in ``src/`` and stores D, final MSE, orthogonality residual,
iteration counts and the detection curve in ``perfbench/reference.json``,
merged into what is already there.  Record it from the commit whose
results later changes must reproduce.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import BenchmarkError, import_checkout, run_command, OUT


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 0-11")
    parser.add_argument("--seconds", type=float, nargs="+", required=True,
                        help="run lengths whose commands to record")
    args = parser.parse_args(argv)
    try:
        import_checkout()
    except BenchmarkError as exc:
        print(f"make_reference: {exc}", file=sys.stderr)
        return 2
    from workloads import (CHECKS, REFERENCE_PATH, WORKLOADS, detection_design_entropy,
                           load_reference, reference_key)

    reference = load_reference()
    OUT.mkdir(exist_ok=True)
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        table = reference.setdefault(name, {})
        for seed in args.seeds:
            for seconds in args.seconds:
                for cmd in workload.commands(seed, seconds):
                    key = reference_key(cmd)
                    if key in table:
                        continue
                    _, status, error, out = run_command(cmd)
                    if error is not None or status not in (0, 1):
                        print(f"{name} {key}: {error or status}", file=sys.stderr)
                        return 1
                    quality, problems = CHECKS[cmd["command"]](cmd, out, None)
                    shutil.rmtree(out, ignore_errors=True)
                    if problems:
                        print(f"{name} {key}: {problems}", file=sys.stderr)
                        return 1
                    if cmd["command"] == "sweep-snr":
                        quality["D"] = detection_design_entropy(cmd)
                    table[key] = quality
                    print(name, key, json.dumps(quality), flush=True)
                    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
