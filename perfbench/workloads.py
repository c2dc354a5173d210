"""Workload definitions and output checks for the cebeam benchmark.

A workload turns ``(seed, seconds)`` into a list of CLI commands, each an
``ExperimentSpec`` keyword set.  Nothing here is timed: the commands are
run by ``run.py`` and their artifacts are read back and checked here.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cebeam.model import (averaged_relative_entropy, is_unit_modulus, quantization_model,
                          unit_modulus)
from cebeam.pipeline import load_scenario, run_ce_design
from cebeam.ce_design import CeDesignParams, orthogonality_residual

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Design seeds of run seed n are SEED_STRIDE * n + i, i < commands per run,
# so runs with different seeds never share a design.
SEED_STRIDE = 64

# Per-seed D may differ from the recorded reference by this share.  Designs
# are deterministic, so unchanged code reproduces D to rounding; a change
# that reorders floating-point work may land a seed in another local optimum,
# and the optima of different default128 seeds differ by 1.3% (one standard
# deviation over the 360 reference seeds).
D_REL_TOL = 0.02
# Consistency between the D a report states and the D recomputed from the
# written design file (phases are written with 10 decimals of a degree).
D_REPORT_REL_TOL = 1e-6
# pd and pfa are Monte Carlo estimates; a difference counts as a failure
# only beyond this many standard deviations of the difference.
MC_SIGMAS = 4.0

# A design command took about this long when the reference was recorded;
# a run of ``seconds`` holds round(seconds / DESIGN_NOMINAL_S) designs.
DESIGN_NOMINAL_S = 2.0

DETECT_SNR_DB = (-5.0, 0.0)
DETECT_PFA = 1e-2
DETECT_BITS = (1, 3)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    scenario: str

    def commands(self, seed: int, seconds: float) -> list[dict]:
        """The run's commands: deterministic in ``seed`` and ``seconds``."""
        if self.command == "sweep-snr":
            trials = detect_trials(seconds)
            return [dict(command=self.command, scenario=self.scenario, seed=seed, bits=b,
                         pfa=DETECT_PFA, trials=trials, snr_grid_db=DETECT_SNR_DB)
                    for b in DETECT_BITS]
        count = max(1, min(SEED_STRIDE, round(seconds / DESIGN_NOMINAL_S)))
        return [dict(command=self.command, scenario=self.scenario,
                     seed=SEED_STRIDE * seed + i, bits=1) for i in range(count)]

    def warmup(self) -> dict:
        """A small command of the same kind, run during set-up."""
        if self.command == "sweep-snr":
            return dict(command="sweep-snr", scenario=self.scenario, seed=0, bits=3,
                        max_iters=2, pfa=DETECT_PFA, trials=1000, snr_grid_db=(0.0,))
        return dict(command="design-ce", scenario=self.scenario, seed=0, bits=1, max_iters=2)


def detect_trials(seconds: float) -> int:
    """Trials per SNR point: about ``seconds`` of work, never below the pfa floor."""
    return max(int(math.ceil(10.0 / DETECT_PFA)), 512 * round(seconds))


# Why each workload is there: see BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("ce-default128", "design-ce", "default128"),
    Workload("onebit-desk32", "design-onebit", "desk32"),
    Workload("detect-desk32", "sweep-snr", "desk32"),
)}


# ---------------------------------------------------------------------------
# Reference values recorded from the seed commit
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def reference_key(cmd: dict) -> str:
    if cmd["command"] == "sweep-snr":
        return f"{cmd['seed']}/b{cmd['bits']}/n{cmd['trials']}"
    return str(cmd["seed"])


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _report(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())["report"]


def _design_record(report: dict) -> dict:
    return {
        "D": report["avg_relative_entropy"],
        "final_mse": report["final_mse"],
        "orth_residual": report["orthogonality_residual"],
        "iterations": report["iterations"],
        "map_evals": report["map_evals"],
        "converged": report["converged"],
    }


def _check_d(rec: dict, D_recomputed: float, ref: dict | None, problems: list[str]) -> None:
    if not math.isfinite(rec["D"]) or rec["D"] <= 0.0:
        problems.append(f"D={rec['D']} is not a positive number")
        return
    if abs(D_recomputed - rec["D"]) > D_REPORT_REL_TOL * rec["D"]:
        problems.append(f"reported D={rec['D']:.8g} but the design file gives {D_recomputed:.8g}")
    if ref is not None:
        rec["D_ref"] = ref["D"]
        if abs(rec["D"] - ref["D"]) > D_REL_TOL * ref["D"]:
            problems.append(f"D={rec['D']:.6g} is off the reference {ref['D']:.6g} "
                            f"by more than {D_REL_TOL:.0%}")


def check_design_ce(cmd: dict, out: Path, ref: dict | None) -> tuple[dict, list[str]]:
    scenario = load_scenario(cmd["scenario"])
    rec = _design_record(_report(out, "design_report.json"))
    problems: list[str] = []
    phases = np.atleast_2d(np.loadtxt(out / "phases_deg.txt"))
    if phases.shape != (scenario.n_tx, scenario.n_rf) or not np.all(np.isfinite(phases)):
        return rec, [f"phase file has shape {phases.shape} or non-finite entries"]
    T = unit_modulus(np.radians(phases), scenario.n_tx)
    if not is_unit_modulus(T, scenario.n_tx):
        problems.append("design is not unit-modulus")
    if abs(orthogonality_residual(T) - rec["orth_residual"]) > 1e-6:
        problems.append("reported orthogonality residual does not match the design file")
    D = averaged_relative_entropy(scenario, T, quantization_model(cmd["bits"]))
    _check_d(rec, D, ref, problems)
    return rec, problems


def check_design_onebit(cmd: dict, out: Path, ref: dict | None) -> tuple[dict, list[str]]:
    scenario = load_scenario(cmd["scenario"])
    report = _report(out, "onebit_report.json")
    rec = _design_record(report)
    rec["momentum_resets"] = report["extras"]["momentum_resets"]
    problems: list[str] = []
    signs = np.atleast_2d(np.loadtxt(out / "signs.txt"))
    if signs.shape != (scenario.n_tx, scenario.n_rf) or not np.all(np.isin(signs, (-1.0, 1.0))):
        return rec, [f"sign file has shape {signs.shape} or entries other than +-1"]
    T = signs / np.sqrt(scenario.n_tx)
    if not np.all(np.abs(np.abs(T) - 1.0 / np.sqrt(scenario.n_tx)) <= 1e-12):
        problems.append("design entries are not +-1/sqrt(N_t)")
    D = averaged_relative_entropy(scenario, T, quantization_model(cmd["bits"]))
    _check_d(rec, D, ref, problems)
    return rec, problems


def read_detection_csv(path: Path) -> list[tuple[float, float, float]]:
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.DictReader(lines))
    return [(float(r["snr_db"]), float(r["pd"]), float(r["ci_halfwidth"])) for r in rows]


def check_sweep_snr(cmd: dict, out: Path, ref: dict | None) -> tuple[dict, list[str]]:
    rows = read_detection_csv(out / "detection.csv")
    n = cmd["trials"]
    rec = {"snr_db": [r[0] for r in rows], "pd": [r[1] for r in rows],
           "ci_halfwidth": [r[2] for r in rows]}
    problems: list[str] = []
    if tuple(rec["snr_db"]) != tuple(cmd["snr_grid_db"]):
        return rec, [f"SNR grid {rec['snr_db']} differs from the requested one"]
    for snr, pd, ci in rows:
        if not 0.0 <= pd <= 1.0:
            problems.append(f"pd={pd} at {snr} dB is not a probability")
            continue
        expected_ci = 1.96 * math.sqrt(max(pd * (1.0 - pd), 1.0 / n) / n)
        if abs(ci - expected_ci) > 1e-9:
            problems.append(f"CI half-width {ci} at {snr} dB is not the binomial {expected_ci}")
    if ref is not None:
        rec["pd_ref"] = ref["pd"]
        for (snr, pd, ci), pd_ref, ci_ref in zip(rows, ref["pd"], ref["ci_halfwidth"]):
            # two independent 95% estimates: compare in units of the difference's sigma
            sigma = math.hypot(ci, ci_ref) / 1.96
            if abs(pd - pd_ref) > MC_SIGMAS * sigma:
                problems.append(f"pd={pd:.4f} at {snr} dB is off the reference {pd_ref:.4f} "
                                f"by more than {MC_SIGMAS:g} sigma")
    return rec, problems


def check_empirical_pfa(empirical_pfa, pfa: float, trials: int) -> list[str]:
    """The false-alarm rate measured on a fresh batch against its binomial bound.

    The threshold is itself an empirical quantile of an independent batch of
    the same size, so the difference carries both binomial variances.
    """
    sigma = math.sqrt(2.0 * pfa * (1.0 - pfa) / trials)
    return [f"empirical pfa {p:.5f} is off the target {pfa:g} by more than "
            f"{MC_SIGMAS:g} sigma ({sigma:.5f})"
            for p in empirical_pfa if abs(p - pfa) > MC_SIGMAS * sigma]


def detection_design_entropy(cmd: dict) -> float:
    """D of the design a sweep-snr command builds before its Monte Carlo.

    The CLI writes only the detection curve, so the design is rebuilt here
    through the same public call the pipeline makes (deterministic per seed).
    """
    scenario = load_scenario(cmd["scenario"])
    _, report, _, _ = run_ce_design(scenario, cmd["bits"], cmd["seed"], "AMM",
                                    CeDesignParams(seed=cmd["seed"]))
    return report.avg_relative_entropy


CHECKS = {
    "design-ce": check_design_ce,
    "design-onebit": check_design_onebit,
    "sweep-snr": check_sweep_snr,
}
