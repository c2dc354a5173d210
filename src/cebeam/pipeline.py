"""Experiment pipelines: stage-1 power allocation, stage-2 design, evaluation
sweeps and machine-readable artifacts with full provenance.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, asdict, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .ce_design import (CeDesignParams, MmTrace, beampattern_mse, orthogonality_residual,
                        pattern_terms, plain_mm, profile_steering, squarem_accelerated_mm)
from .model import (ADC_DISTORTION, ModelError, Scenario, averaged_relative_entropy,
                    beampattern_powers, hypothesis_covariances, quantization_model,
                    random_unit_modulus, relative_entropy, unit_modulus)
from .onebit import EpmTrace, OneBitParams, nesterov_epm, round_to_signs
from .power_alloc import PowerAllocationResult, PowerProfile, bcd_power_allocation
from .quantizer import lloyd_max_codebook
from .simulate import check_detection_settings, detection_curve, steering_crosscorr_experiment

METHOD_TAGS = ("AMM", "MM", "BCD-direct", "projection-baseline", "Nesterov-EPM", "exhaustive")


@dataclass
class ExperimentSpec:
    """One CLI invocation: a command plus its knobs."""

    command: str
    scenario: str = "default128"
    seed: int = 0
    bits: int | str = 1
    out_dir: str = "out"
    max_iters: int | None = None
    tol: float | None = None
    method: str = "AMM"
    design_path: str | None = None
    pfa: float = 1e-3
    trials: int = 100_000
    snr_grid_db: tuple = (-20.0, -15.0, -10.0, -5.0, 0.0)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ModelError(f"unknown command {self.command!r}; expected one of {COMMANDS}")
        if str(self.method).upper() not in ("AMM", "MM"):
            raise ModelError(f"unknown design method {self.method!r}; expected AMM or MM")
        self.snr_grid_db = tuple(self.snr_grid_db)


@dataclass
class DesignReport:
    """Summary of one design run, serialized next to its trace file."""

    method: str
    iterations: int
    wall_time_s: float
    final_mse: float
    orthogonality_residual: float
    avg_relative_entropy: float | None = None
    mean_angle_relative_entropy: float | None = None
    converged: bool = True
    map_evals: int = 0
    trace_path: str | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHOD_TAGS:
            raise ModelError(f"unknown method tag {self.method!r}")
        for name in ("wall_time_s", "final_mse", "orthogonality_residual"):
            if not math.isfinite(getattr(self, name)):
                raise ModelError(f"report field {name} is not finite")


# ---------------------------------------------------------------------------
# Scenario loading and provenance
# ---------------------------------------------------------------------------

def load_scenario(name_or_path: str | Path) -> Scenario:
    """Resolve a filesystem path or a built-in scenario name."""
    p = Path(name_or_path)
    if p.exists():
        return Scenario.from_json(p)
    builtin = resources.files("cebeam").joinpath(f"scenarios/{name_or_path}.json")
    if builtin.is_file():
        return Scenario.from_dict(json.loads(builtin.read_text()))
    raise ModelError(f"scenario {name_or_path!r} is neither a file nor a built-in name")


def provenance(scenario: Scenario, spec: ExperimentSpec, params: dict) -> dict:
    return {
        "scenario_hash": scenario.content_hash(),
        "seed": spec.seed,
        "params": params,
        "version": __version__,
        "command": spec.command,
    }


def write_csv(path: Path, header: list[str], rows, prov: dict) -> None:
    """CSV with '#'-prefixed provenance lines before the column header."""
    with open(path, "w") as fh:
        for key, val in prov.items():
            fh.write(f"# {key}: {json.dumps(val, sort_keys=True, default=str)}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else f"{v}" for v in row) + "\n")


def write_json(path: Path, payload: dict, prov: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"provenance": prov, **payload}, fh, indent=2, default=str)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Design runners
# ---------------------------------------------------------------------------

def evaluate_entropies(scenario: Scenario, T: np.ndarray, bits) -> tuple[float, float]:
    """(grid-averaged, mean-angle) relative entropy of a design."""
    q = quantization_model(bits)
    avg = averaged_relative_entropy(scenario, T, q)
    single = relative_entropy(hypothesis_covariances(scenario, T, q, scenario.target_mean_angle))
    return avg, single


def run_power_allocation(scenario: Scenario, bits, **options) -> PowerAllocationResult:
    """Stage 1 at the given ADC resolution; ``options`` go to ``bcd_power_allocation``."""
    return bcd_power_allocation(scenario, quantization_model(bits), **options)


def run_ce_design(scenario: Scenario, bits, seed: int, method: str = "AMM",
                  params: CeDesignParams | None = None,
                  profile: PowerProfile | None = None, monitor=None
                  ) -> tuple[np.ndarray, DesignReport, MmTrace, PowerProfile]:
    """Stage 1 + stage 2 with the requested fixed-point scheme."""
    if profile is None:
        profile = run_power_allocation(scenario, bits).profile
    params = params or CeDesignParams(seed=seed)
    rng = np.random.default_rng(seed)
    T0 = random_unit_modulus(scenario.n_tx, scenario.n_rf, rng)
    runner = squarem_accelerated_mm if method.upper() == "AMM" else plain_mm
    T, trace = runner(T0, profile, params, monitor=monitor)
    avg, single = evaluate_entropies(scenario, T, bits)
    report = DesignReport(
        method=method.upper(), iterations=trace.iterations, wall_time_s=trace.wall_time_s,
        final_mse=float(trace.mse[-1]), orthogonality_residual=float(trace.orth_residual[-1]),
        avg_relative_entropy=avg, mean_angle_relative_entropy=single,
        converged=trace.converged, map_evals=trace.map_evals)
    return T, report, trace, profile


def run_onebit_design(scenario: Scenario, bits, seed: int,
                      params: OneBitParams | None = None,
                      profile: PowerProfile | None = None,
                      ce_params: CeDesignParams | None = None
                      ) -> tuple[np.ndarray, DesignReport, EpmTrace, PowerProfile]:
    """Stage 1, a constant-envelope warm start, then the exact-penalty solver."""
    if profile is None:
        profile = run_power_allocation(scenario, bits).profile
    params = params or OneBitParams(seed=seed)
    T_ce, _, _, _ = run_ce_design(scenario, bits, seed, "AMM",
                                  ce_params or CeDesignParams(seed=seed), profile)
    # one-bit starting point: phases snapped to {0, pi}, column-major vector
    t0 = round_to_signs(np.real(T_ce), scenario.n_tx, scenario.n_rf).reshape(-1, order="F")
    started = time.perf_counter()
    T, trace = nesterov_epm(t0, profile, scenario.n_tx, scenario.n_rf, params)
    avg, single = evaluate_entropies(scenario, T, bits)
    report = DesignReport(
        method="Nesterov-EPM", iterations=trace.iterations,
        wall_time_s=time.perf_counter() - started,
        final_mse=beampattern_mse(T, profile),
        orthogonality_residual=orthogonality_residual(T),
        avg_relative_entropy=avg, mean_angle_relative_entropy=single,
        converged=trace.converged,
        extras={"momentum_resets": trace.momentum_resets,
                "final_binary_gap": float(trace.binary_gap[-1])})
    return T, report, trace, profile


def projection_baseline(scenario: Scenario, profile: PowerProfile, seed: int = 0,
                        iters: int = 500, penalty: float = 1.0
                        ) -> tuple[np.ndarray, DesignReport]:
    """Unconstrained least-squares pattern fit, then entrywise phase projection.

    Gradient descent with backtracking on the pattern MSE plus orthogonality
    penalty over a free complex matrix; the constant-envelope constraint is
    applied only at the end by keeping the phases.
    """
    n_tx, n_rf = scenario.n_tx, scenario.n_rf
    A, _ = profile_steering(profile, n_tx)
    eye = np.eye(n_rf)

    def cost(T):
        gram = T.conj().T @ T - eye
        return float(np.sum(pattern_terms(T, profile)[1] ** 2)
                     + penalty * np.sum(np.abs(gram) ** 2))

    def grad(T):
        Z, gaps = pattern_terms(T, profile)
        g = 2.0 * (A.conj() * gaps) @ Z
        return g + 2.0 * penalty * T @ (T.conj().T @ T - eye)

    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    T = (rng.standard_normal((n_tx, n_rf)) + 1j * rng.standard_normal((n_tx, n_rf)))
    T /= np.sqrt(2.0 * n_tx)
    f = cost(T)
    for _ in range(iters):
        g = grad(T)
        gnorm2 = float(np.sum(np.abs(g) ** 2))
        mu = 1.0
        for _ in range(60):
            cand = T - mu * g
            fc = cost(cand)
            if fc <= f - 1e-4 * mu * gnorm2:
                break
            mu *= 0.5
        T, f = cand, fc

    phases = np.angle(T)
    T_proj = unit_modulus(phases, n_tx)
    report = DesignReport(
        method="projection-baseline", iterations=iters,
        wall_time_s=time.perf_counter() - started,
        final_mse=beampattern_mse(T_proj, profile),
        orthogonality_residual=orthogonality_residual(T_proj),
        extras={"unconstrained_cost": f,
                "unconstrained_mse": beampattern_mse(T, profile)})
    return T_proj, report


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def sweep(scenario: Scenario, seed: int, swept: str, values, bits=1,
          params: CeDesignParams | None = None) -> list[tuple]:
    """(value, D) of an AMM design for each value of ``swept``.

    ``swept`` is "bits" (the ADC resolution) or a ``Scenario`` field such as
    "n_rf" or "n_rx"; the ADC resolution is otherwise held at ``bits``.
    """
    rows = []
    for value in values:
        sc = scenario if swept == "bits" else replace(scenario, **{swept: value})
        _, report, _, _ = run_ce_design(sc, value if swept == "bits" else bits, seed, "AMM",
                                        params)
        rows.append((value, report.avg_relative_entropy))
    return rows


def fig2_rows(n_rx_list=(32, 64, 128, 256), clutter_counts=(5, 10, 20),
              trials: int = 10_000, seed: int = 0) -> list[tuple]:
    rows = []
    for k in clutter_counts:
        errs = steering_crosscorr_experiment(n_rx_list, k, trials, seed)
        rows.extend((k, n, e) for n, e in zip(n_rx_list, errs))
    return rows


# ---------------------------------------------------------------------------
# CLI pipeline
# ---------------------------------------------------------------------------

def _limits(spec: ExperimentSpec, iters_name: str = "max_iters") -> dict:
    """The --max-iters/--tol values given, keyed as the solver names them."""
    given = {iters_name: spec.max_iters, "tol": spec.tol}
    return {name: value for name, value in given.items() if value is not None}


def _allocate_power(spec: ExperimentSpec, scenario: Scenario, out: Path) -> bool:
    alloc = run_power_allocation(scenario, spec.bits, **_limits(spec, "max_sweeps"))
    prov = provenance(scenario, spec, {"bits": spec.bits, "grid_step": alloc.grid_step})
    write_json(out / "power_profile.json", {"profile": alloc.profile.to_dict(),
                                            "objective": alloc.objective,
                                            "sweeps": alloc.sweeps,
                                            "converged": alloc.converged}, prov)
    write_csv(out / "power_trace.csv", ["iteration", "objective"],
              list(enumerate(alloc.trace, start=1)), prov)
    return alloc.converged


def _design_ce(spec: ExperimentSpec, scenario: Scenario, out: Path) -> bool:
    params = CeDesignParams(seed=spec.seed, **_limits(spec))
    entropy_every = 50
    entropy_marks: dict[int, float] = {}
    q = quantization_model(spec.bits)

    def monitor(it, T):
        if it % entropy_every == 0:
            entropy_marks[it] = averaged_relative_entropy(scenario, T, q)

    T, report, trace, profile = run_ce_design(
        scenario, spec.bits, spec.seed, spec.method, params, monitor=monitor)
    prov = provenance(scenario, spec, {"bits": spec.bits, **asdict(params)})
    np.savetxt(out / "phases_deg.txt", np.degrees(np.angle(T)), fmt="%.10f")
    rows = [(i + 1, trace.mse[i], trace.orth_residual[i], entropy_marks.get(i + 1))
            for i in range(trace.iterations)]
    write_csv(out / "design_trace.csv",
              ["iteration", "mse", "penalty_residual", "relative_entropy"], rows, prov)
    report.trace_path = str(out / "design_trace.csv")
    write_json(out / "design_report.json",
               {"report": asdict(report), "profile": profile.to_dict()}, prov)
    return report.converged


def _design_onebit(spec: ExperimentSpec, scenario: Scenario, out: Path) -> bool:
    params = OneBitParams(seed=spec.seed, **_limits(spec))
    T, report, trace, profile = run_onebit_design(scenario, spec.bits, spec.seed, params)
    prov = provenance(scenario, spec, {"bits": spec.bits, **asdict(params)})
    np.savetxt(out / "signs.txt", np.sign(T).astype(int), fmt="%+d")
    rows = [(i + 1, trace.objective[i], trace.grad_norm[i], trace.binary_gap[i])
            for i in range(trace.iterations)]
    write_csv(out / "onebit_trace.csv",
              ["iteration", "objective", "grad_norm", "binary_gap"], rows, prov)
    report.trace_path = str(out / "onebit_trace.csv")
    write_json(out / "onebit_report.json",
               {"report": asdict(report), "profile": profile.to_dict()}, prov)
    return report.converged


def _evaluate(spec: ExperimentSpec, scenario: Scenario, out: Path) -> bool:
    if not spec.design_path:
        raise ModelError("evaluate needs --design pointing at a phase or sign matrix")
    T = _load_design(spec.design_path, scenario)
    avg, single = evaluate_entropies(scenario, T, spec.bits)
    prov = provenance(scenario, spec, {"bits": spec.bits, "design": spec.design_path})
    grid = np.linspace(-90.0, 90.0, 721)
    pattern = beampattern_powers(T, np.radians(grid))
    write_csv(out / "beampattern.csv", ["angle_deg", "power"], list(zip(grid, pattern)), prov)
    write_json(out / "evaluation.json",
               {"avg_relative_entropy": avg, "mean_angle_relative_entropy": single,
                "orthogonality_residual": orthogonality_residual(T)}, prov)
    return True


# swept field and values of each sweep command; its CSV is named after the command
SWEEPS = {"sweep-bits": ("bits", (1, 2, 3, 4, 5, "ideal")),
          "sweep-rf": ("n_rf", (2, 4, 8)),
          "sweep-antennas": ("n_rx", (32, 64, 128))}


def _sweep(spec: ExperimentSpec, scenario: Scenario, out: Path) -> bool:
    swept, values = SWEEPS[spec.command]
    rows = sweep(scenario, spec.seed, swept, values, spec.bits,
                 CeDesignParams(seed=spec.seed, **_limits(spec)))
    prov = provenance(scenario, spec, {"bit_list": list(values)} if swept == "bits"
                      else {"bits": spec.bits})
    write_csv(out / f"{spec.command.replace('-', '_')}.csv", [swept, "relative_entropy"],
              rows, prov)
    if swept == "bits":
        beta_rows = [(b, lloyd_max_codebook(b).distortion(), ADC_DISTORTION[b])
                     for b in sorted(ADC_DISTORTION)]
        write_csv(out / "quantizer_beta.csv", ["bits", "measured_beta", "table_beta"],
                  beta_rows, prov)
    return True


def _sweep_snr(spec: ExperimentSpec, scenario: Scenario, out: Path) -> bool:
    check_detection_settings(spec.pfa, spec.trials)       # before the design runs
    T, report, _, _ = run_ce_design(scenario, spec.bits, spec.seed, spec.method,
                                    CeDesignParams(seed=spec.seed, **_limits(spec)))
    curve = detection_curve(T, scenario, spec.bits, spec.snr_grid_db,
                            spec.pfa, spec.trials, spec.seed)
    prov = provenance(scenario, spec, {"bits": spec.bits, "pfa": spec.pfa,
                                       "trials": spec.trials})
    write_csv(out / "detection.csv", ["snr_db", "pd", "ci_halfwidth"],
              list(zip(curve.snr_db, curve.pd, curve.ci_halfwidth)), prov)
    return report.converged


def _fig2(spec: ExperimentSpec, scenario: Scenario, out: Path) -> bool:
    prov = provenance(scenario, spec, {"trials": 10_000})
    write_csv(out / "steering_gram_error.csv", ["n_clutter", "n_rx", "mean_error"],
              fig2_rows(seed=spec.seed), prov)
    return True


# command -> handler(spec, scenario, out dir); a handler returns whether every
# stage converged
HANDLERS = {"allocate-power": _allocate_power, "design-ce": _design_ce,
            "design-onebit": _design_onebit, "evaluate": _evaluate,
            "sweep-bits": _sweep, "sweep-rf": _sweep, "sweep-antennas": _sweep,
            "sweep-snr": _sweep_snr, "fig2": _fig2}
COMMANDS = tuple(HANDLERS)


def run_pipeline(spec: ExperimentSpec) -> int:
    """Execute one command, write its artifacts, return the exit status.

    Status 0 means every stage converged within its tolerance; outputs are
    written in any case.
    """
    scenario = load_scenario(spec.scenario)
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return 0 if HANDLERS[spec.command](spec, scenario, out) else 1


def _load_design(path: str, scenario: Scenario) -> np.ndarray:
    """Read a design file: phases in degrees, or a +-1 sign grid."""
    try:
        raw = np.loadtxt(path)
    except OSError as exc:
        raise ModelError(f"cannot read design file {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ModelError(f"design file {path!r} is not a numeric matrix: {exc}") from exc
    raw = np.atleast_2d(raw)
    if raw.shape != (scenario.n_tx, scenario.n_rf):
        raise ModelError(f"design shape {raw.shape} does not match "
                         f"({scenario.n_tx}, {scenario.n_rf})")
    if not np.all(np.isfinite(raw)):
        raise ModelError(f"design file {path!r} holds non-finite entries")
    if np.all(np.isin(raw, (-1.0, 1.0))):
        return raw / np.sqrt(scenario.n_tx)
    return unit_modulus(np.radians(raw), scenario.n_tx)
