"""Smoke test of the benchmark harness.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

Runs every workload for one seed at ``--seconds 1`` (one design, or 1000
trials per SNR point), untraced and traced, and checks that each output
check can fail.  The file name keeps it out of the repository's tier-1
collection; it takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_checkout()

from tracer import PER_LAYER  # noqa: E402
from workloads import (WORKLOADS, check_design_ce, check_design_onebit,  # noqa: E402
                       check_empirical_pfa, check_sweep_snr)

TIMEOUT_S = 300


def _bench(*args: str, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=TIMEOUT_S)


def test_smoke_every_workload_both_modes():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {0: {(m["name"], m["unit"]) for m in declared["end_to_end"]},
                1: {(m["name"], m["unit"]) for m in declared["per_layer"]}}
    assert expected[1] == {(name, unit) for name, unit, _ in PER_LAYER}
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = _bench("--workload", name, "--seed", "0", "--seconds", "1",
                          "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            record = json.loads(lines[-2])["record"]
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], (name, trace, record["run_problems"],
                                       [c["problems"] for c in record["commands"]])
            assert result["attempted"] >= 1 and result["failed"] == 0
            assert {(k, m["unit"]) for k, m in result["metrics"].items()} == expected[trace]
            values = [m["value"] for m in result["metrics"].values()]
            assert all(math.isfinite(v) for v in values)
            if trace == 0:
                assert all(v > 0 for v in values)
            # the smoke seed is in the reference table, so the D/pd checks ran
            assert all(c["reference"] for c in record["commands"])


def _design(command: str, out: Path) -> dict:
    cmd = dict(command=command, scenario="desk32", seed=0, bits=1, max_iters=2)
    _, status, error, produced = run.run_command(cmd)
    assert error is None and status in (0, 1)
    shutil.copytree(produced, out, dirs_exist_ok=True)
    shutil.rmtree(produced)
    return cmd


def test_design_checks_catch_corruption():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        out = Path(tmp)
        cmd = _design("design-ce", out)
        rec, problems = check_design_ce(cmd, out, None)
        assert not problems
        _, problems = check_design_ce(cmd, out, {"D": rec["D"] * 1.05})
        assert any("reference" in p for p in problems)
        phases = (out / "phases_deg.txt").read_text().splitlines()
        phases[0] = " ".join(["1.0"] * len(phases[0].split()))
        (out / "phases_deg.txt").write_text("\n".join(phases) + "\n")
        _, problems = check_design_ce(cmd, out, None)
        assert any("design file" in p for p in problems)

        cmd = _design("design-onebit", out)
        assert not check_design_onebit(cmd, out, None)[1]
        signs = (out / "signs.txt").read_text().replace("+1", "+0", 1)
        (out / "signs.txt").write_text(signs)
        assert check_design_onebit(cmd, out, None)[1]


def test_detection_checks_catch_corruption():
    cmd = dict(command="sweep-snr", scenario="desk32", seed=0, bits=1, pfa=1e-2,
               trials=1000, snr_grid_db=(-5.0, 0.0))
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        out = Path(tmp)
        pd, n = 0.4, 1000
        ci = 1.96 * math.sqrt(pd * (1 - pd) / n)
        (out / "detection.csv").write_text(
            f"# seed: 0\nsnr_db,pd,ci_halfwidth\n-5.0,{pd},{ci}\n0.0,{pd},{ci}\n")
        ref = {"pd": [pd, pd], "ci_halfwidth": [ci, ci]}
        assert not check_sweep_snr(cmd, out, ref)[1]
        far = {"pd": [pd + 0.2, pd], "ci_halfwidth": [ci, ci]}
        assert check_sweep_snr(cmd, out, far)[1]
        (out / "detection.csv").write_text(
            f"snr_db,pd,ci_halfwidth\n-5.0,{pd},{ci / 2}\n0.0,{pd},{ci}\n")
        assert check_sweep_snr(cmd, out, None)[1]
    assert not check_empirical_pfa([0.0105, 0.0093], 1e-2, 16384)
    assert check_empirical_pfa([0.02], 1e-2, 16384)


def test_refuses_a_tree_without_the_program():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        bare = Path(tmp)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = _bench("--workload", "ce-default128", "--seed", "0", "--seconds", "1",
                      "--trace", "0", script=bare / HERE.name / "run.py")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for _name, _test in list(globals().items()):
        if _name.startswith("test_") and callable(_test):
            _test()
            print(f"ok {_name}")
