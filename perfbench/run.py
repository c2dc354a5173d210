#!/usr/bin/env python3
"""Outside-in benchmark of the cebeam CLI pipelines.

    python3 perfbench/run.py --workload ce-default128 --seed 0 --seconds 30 --trace 0

Every command goes through the public ``cebeam.pipeline.run_pipeline`` of
this checkout's ``src/``, the code path of the ``cebeam`` CLI, writing its
artifacts to a temporary directory under ``perfbench/out``.  The artifacts
are read back and checked after each command (untimed).  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` wraps the library's layers
(see ``tracer.py``), prints the per-layer metrics and writes the span tree
to ``perfbench/out``.  The last line of standard output is the result
object; the line before it is the full record (provenance, per-command
quality numbers, check failures).  See README.md for the metrics.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: on a 2-core machine two threads made a default128 design
# about 20% slower (1.56 s against 1.89 s), and one keeps runs steadier.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("D_avg", "nat"),
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run against this checkout."""


def import_checkout():
    """Pin BLAS threads, then import cebeam from this checkout's ``src/``."""
    for var in BLAS_ENV:
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    if not (SRC / "cebeam" / "__init__.py").is_file():
        raise BenchmarkError(f"no cebeam package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cebeam
    if Path(cebeam.__file__).resolve().parent != (SRC / "cebeam").resolve():
        raise BenchmarkError(f"imported cebeam from {cebeam.__file__}, not from {SRC}")
    return cebeam


def run_command(cmd: dict):
    """Run one command through the pipeline; returns (seconds, status, error, out dir)."""
    from cebeam import pipeline
    out = Path(tempfile.mkdtemp(prefix="cmd-", dir=OUT))
    spec = pipeline.ExperimentSpec(out_dir=str(out), **cmd)
    t0 = time.perf_counter()
    try:
        status, error = pipeline.run_pipeline(spec), None
    except Exception as exc:          # a raising command is a failed command
        status, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, status, error, out


def set_up(workload) -> None:
    """Scenario resolution and one small command, so first-call costs land here."""
    from cebeam.pipeline import load_scenario
    load_scenario(workload.scenario).content_hash()
    _, _, error, out = run_command(workload.warmup())
    shutil.rmtree(out, ignore_errors=True)
    if error is not None:
        raise BenchmarkError(f"warm-up command failed: {error}")


def measure_setup(workload_name: str, own_sample: float) -> tuple[float, list[float]]:
    """Median set-up time over this process and fresh interpreters."""
    samples = [own_sample]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
             "--setup-probe"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


def execute(commands: list[dict], seconds: float, single_pass: bool):
    """Run passes over ``commands``; another pass starts only if it fits in ``seconds``.

    Returns the runs, each ``(command, seconds, status, error, out dir)``, and
    the pass times.  Artifacts are checked afterwards, so that a traced run
    does not trace the checks.
    """
    runs, pass_times = [], []
    while True:
        pass_time = 0.0
        for cmd in commands:
            dt, status, error, out = run_command(cmd)
            pass_time += dt
            runs.append((cmd, dt, status, error, out))
        pass_times.append(pass_time)
        if single_pass or sum(pass_times) + pass_time > seconds:
            return runs, pass_times


def check_runs(workload, runs: list[tuple], reference: dict) -> list[dict]:
    """One record per run: wall time, exit status, quality numbers, failed checks."""
    from workloads import CHECKS, reference_key
    records = []
    for cmd, dt, status, error, out in runs:
        rec = {"command": cmd["command"], "seed": cmd["seed"], "bits": cmd["bits"],
               "wall_s": dt, "status": status, "problems": []}
        if error is not None:
            rec["problems"].append(error)
        elif status not in (0, 1):
            rec["problems"].append(f"exit status {status}")
        else:
            # status 1 is the CLI's "artifacts written, an iteration hit its cap"
            ref = reference.get(workload.name, {}).get(reference_key(cmd))
            try:
                quality, problems = CHECKS[cmd["command"]](cmd, out, ref)
            except (OSError, ValueError, KeyError) as exc:
                quality, problems = {}, [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
            rec.update(quality)
            rec["problems"].extend(problems)
            rec["reference"] = ref is not None
        shutil.rmtree(out, ignore_errors=True)
        records.append(rec)
    return records


def provenance(cebeam, workload, commands: list[dict], trace: bool) -> dict:
    import numpy
    import scipy
    from cebeam._accel import using_numba
    from cebeam.pipeline import load_scenario
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_vendor = "unknown"
    return {
        "git": _git_state(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas_vendor,
        "blas_threads": int(os.environ[BLAS_ENV[0]]),
        "nproc": os.cpu_count(),
        "using_numba": using_numba(),
        "cebeam_version": cebeam.__version__,
        "sys_path_entry": str(SRC),
        "scenario": workload.scenario,
        "scenario_hash": load_scenario(workload.scenario).content_hash(),
        "seeds": sorted({c["seed"] for c in commands}),
        "commands": commands,
        "traced": trace,
    }


def _git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip() or None, "dirty": bool(status.stdout.strip())}


def design_entropies(workload, records: list[dict], commands: list[dict], reference: dict):
    """D of every distinct design the run produced (sweep-snr: rebuilt, untimed)."""
    from workloads import D_REL_TOL, detection_design_entropy, reference_key
    if workload.command != "sweep-snr":
        seen = {}
        for rec in records:
            if "D" in rec:
                seen[(rec["seed"], rec["bits"])] = rec["D"]
        return list(seen.values()), []
    values, problems = [], []
    for cmd in commands:
        D = detection_design_entropy(cmd)
        values.append(D)
        ref = reference.get(workload.name, {}).get(reference_key(cmd))
        if ref is not None and abs(D - ref["D"]) > D_REL_TOL * ref["D"]:
            problems.append(f"design D={D:.6g} for seed {cmd['seed']} bits {cmd['bits']} "
                            f"is off the reference {ref['D']:.6g}")
    return values, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="measure one set-up in this interpreter and exit")
    args = parser.parse_args(argv)

    try:
        cebeam = import_checkout()
        from workloads import WORKLOADS, check_empirical_pfa, load_reference
        from tracer import PER_LAYER, Tracer, per_call_overhead
        if args.workload not in WORKLOADS:
            raise BenchmarkError(f"unknown workload {args.workload!r}; "
                                 f"expected one of {sorted(WORKLOADS)}")
        if args.seed < 0 or args.seconds <= 0:
            raise BenchmarkError("--seed must be >= 0 and --seconds > 0")
        workload = WORKLOADS[args.workload]
        OUT.mkdir(exist_ok=True)
        set_up(workload)
        own_setup = time.perf_counter() - STARTED
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        # the traced run reports no set-up time, so it spends none on more samples
        setup_s, setup_samples = ((own_setup, [own_setup]) if args.trace
                                  else measure_setup(workload.name, own_setup))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    commands = workload.commands(args.seed, args.seconds)
    reference = load_reference()
    tracer = None
    if args.trace:
        overhead_per_call = per_call_overhead()
        tracer = Tracer()
        tracer.install()
    try:
        runs, pass_times = execute(commands, args.seconds, single_pass=bool(args.trace))
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records = check_runs(workload, runs, reference)

    run_problems = []
    D_values, d_problems = design_entropies(workload, records, commands, reference)
    run_problems.extend(d_problems)
    wall_s = statistics.median(pass_times)
    if args.trace:
        metrics = tracer.metrics(pass_times[0], overhead_per_call)
        units = {name: unit for name, unit, _ in PER_LAYER}
        for curve in tracer.detection_curves:
            run_problems.extend(check_empirical_pfa(curve.empirical_pfa, curve.pfa_target,
                                                    curve.trials))
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.write(spans_path)
    else:
        metrics = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
                   "D_avg": statistics.fmean(D_values) if D_values else 0.0}
        units = dict(END_TO_END)

    failed = sum(1 for r in records if r["problems"])
    correct = failed == 0 and not run_problems and bool(D_values)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "provenance": provenance(cebeam, workload, commands, bool(args.trace)),
        "setup_samples_s": setup_samples, "pass_times_s": pass_times,
        "D_values": D_values, "run_problems": run_problems, "commands": records,
    }
    if args.trace:
        record["spans_path"] = str(spans_path.relative_to(ROOT))
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
