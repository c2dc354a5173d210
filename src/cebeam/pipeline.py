"""Experiment pipelines: stage-1 power profile, stage-2 design, evaluation
sweeps and machine-readable artifacts with full provenance.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field, asdict, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .ce_design import (CeDesignParams, DesignProblem, MmTrace, beampattern_mse,
                        evaluate_iterate, orthogonality_residual, plain_mm,
                        squarem_accelerated_mm)
from .model import (ADC_DISTORTION, ModelError, Scenario, averaged_relative_entropy,
                    beampattern_powers, quantization_model, random_unit_modulus,
                    relative_entropies, unit_modulus)
# the oracles of D and of stage 1, under the names perfbench's tracer wraps in this module
from .model import hypothesis_covariances, relative_entropy  # noqa: F401
from .power_alloc import bcd_power_allocation  # noqa: F401
from .onebit import EpmTrace, OneBitParams, nesterov_epm, round_to_signs
from .power_alloc import PowerProfile, power_profile, profile_objective
from .quantizer import lloyd_max_codebook
from . import simulate
from .simulate import check_detection_settings, detection_curve, steering_crosscorr_experiment


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
        if self.seed < 0:
            raise ModelError(f"seed must be >= 0, got {self.seed}")
        self.snr_grid_db = tuple(self.snr_grid_db)     # each point is checked by scenario_at_snr


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

    def __post_init__(self):        # write_json's check, before a design's first artifact
        _strict_json(asdict(self), "the design report")


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
        "numpy": np.__version__,           # the only numeric library a run imports
        "command": spec.command,
    }


def _artifact(path: Path) -> Path:
    """``path``, its directory made: a run's first artifact makes its output directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_csv(path: Path, header: list[str], rows, prov: dict) -> None:
    """CSV with '#'-prefixed provenance lines before the column header."""
    with open(_artifact(path), "w") as fh:
        for key, val in prov.items():
            fh.write(f"# {key}: {json.dumps(val, sort_keys=True, default=str)}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else f"{v}" for v in row) + "\n")


def _strict_json(payload: dict, what: str) -> str:
    """JSON text of ``payload``; a NaN or infinity in it is refused."""
    try:
        return json.dumps(payload, indent=2, default=str, allow_nan=False)
    except ValueError as exc:
        raise ModelError(f"{what} would hold a non-finite number ({exc})") from exc


def write_json(path: Path, payload: dict, prov: dict) -> None:
    """Strict JSON: a NaN or infinity is refused before the file is written."""
    _artifact(path).write_text(_strict_json({"provenance": prov, **payload}, path.name) + "\n")


# ---------------------------------------------------------------------------
# Design runners
# ---------------------------------------------------------------------------

def evaluate_entropies(scenario: Scenario, T: np.ndarray, bits) -> tuple[float, float]:
    """(grid-averaged, mean-angle) relative entropy of a design."""
    q = quantization_model(bits)
    avg = averaged_relative_entropy(scenario, T, q)
    single = float(relative_entropies(scenario, T, q, scenario.target_mean_angle)[0])
    return avg, single


def run_ce_design(scenario: Scenario, bits, seed: int, method: str = "AMM",
                  params: CeDesignParams | None = None,
                  profile: PowerProfile | None = None, monitor=None
                  ) -> tuple[np.ndarray, DesignReport, MmTrace, PowerProfile]:
    """Stage 1 + stage 2 with the requested fixed-point scheme, "AMM" or "MM"."""
    if str(method).upper() not in ("AMM", "MM"):
        raise ModelError(f"unknown design method {method!r}; expected AMM or MM")
    quantization_model(bits)                 # refuses a bad resolution before the design
    profile = profile or power_profile(scenario)
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
        converged=trace.converged, map_evals=trace.map_evals,
        extras={**trace.counters(), "minorizer": trace.minorizer})
    return T, report, trace, profile


def run_onebit_design(scenario: Scenario, bits, seed: int,
                      params: OneBitParams | None = None,
                      profile: PowerProfile | None = None
                      ) -> tuple[np.ndarray, DesignReport, EpmTrace, PowerProfile]:
    """Stage 1, a constant-envelope warm start, then the exact-penalty solver."""
    profile = profile or power_profile(scenario)
    params = params or OneBitParams()
    T_ce, ce_report, _, _ = run_ce_design(scenario, bits, seed, "AMM", profile=profile)
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
        extras={"momentum_resets": trace.momentum_resets, "halvings": trace.halvings,
                "final_binary_gap": float(trace.binary_gap[-1]),
                "warm_start": {"iterations": ce_report.iterations,
                               "map_evals": ce_report.map_evals, **ce_report.extras}})
    return T, report, trace, profile


def projection_baseline(scenario: Scenario, problem: DesignProblem, seed: int = 0,
                        iters: int = 500, penalty: float = 1.0
                        ) -> tuple[np.ndarray, DesignReport]:
    """Unconstrained least-squares pattern fit, then entrywise phase projection.

    Gradient descent with backtracking on the pattern MSE plus orthogonality
    penalty over a free complex matrix; the constant-envelope constraint is
    applied only at the end by keeping the phases.  Each candidate is
    evaluated once, and the gradient is read from the accepted ``Iterate``.
    """
    n_tx, n_rf = scenario.n_tx, scenario.n_rf
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    T = (rng.standard_normal((n_tx, n_rf)) + 1j * rng.standard_normal((n_tx, n_rf)))
    T /= np.sqrt(2.0 * n_tx)
    x = evaluate_iterate(T, problem)
    f = x.objective(penalty)
    for _ in range(iters):
        g = 2.0 * (problem.A_conj * x.gaps) @ x.Z
        g += 2.0 * penalty * x.T @ (x.gram - problem.eye_rf)
        gnorm2 = float(np.sum(np.abs(g) ** 2))
        mu = 1.0
        for _ in range(60):
            cand = evaluate_iterate(x.T - mu * g, problem)
            if cand.objective(penalty) <= f - 1e-4 * mu * gnorm2:
                break
            mu *= 0.5
        x, f = cand, cand.objective(penalty)

    T_proj = unit_modulus(np.angle(x.T), n_tx)
    x_proj = evaluate_iterate(T_proj, problem)
    report = DesignReport(
        method="projection-baseline", iterations=iters,
        wall_time_s=time.perf_counter() - started,
        final_mse=x_proj.mse, orthogonality_residual=x_proj.orth,
        extras={"unconstrained_cost": f, "unconstrained_mse": x.mse})
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

def _limits(spec: ExperimentSpec) -> dict:
    """The --max-iters/--tol values given, keyed as the solver names them."""
    given = {"max_iters": spec.max_iters, "tol": spec.tol}
    return {name: value for name, value in given.items() if value is not None}


def _allocate_power(spec: ExperimentSpec, scenario: Scenario, out: Path) -> bool:
    profile = power_profile(scenario)
    objective = profile_objective(profile.target_levels, profile.clutter_levels, scenario,
                                  quantization_model(spec.bits))
    write_json(out / "power_profile.json",
               {"profile": profile.to_dict(), "objective": float(objective)},
               provenance(scenario, spec, {"bits": spec.bits}))
    return True


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
    np.savetxt(_artifact(out / "phases_deg.txt"), np.degrees(np.angle(T)), fmt="%.10f")
    rows = [(i + 1, trace.mse[i], trace.orth_residual[i], entropy_marks.get(i + 1))
            for i in range(trace.iterations)]
    write_csv(out / "design_trace.csv",
              ["iteration", "mse", "penalty_residual", "relative_entropy"], rows, prov)
    report.trace_path = str(out / "design_trace.csv")
    write_json(out / "design_report.json",
               {"report": asdict(report), "profile": profile.to_dict()}, prov)
    return report.converged


def _design_onebit(spec: ExperimentSpec, scenario: Scenario, out: Path) -> bool:
    params = OneBitParams(**_limits(spec))
    T, report, trace, profile = run_onebit_design(scenario, spec.bits, spec.seed, params)
    prov = provenance(scenario, spec, {"bits": spec.bits, **asdict(params)})
    np.savetxt(_artifact(out / "signs.txt"), np.sign(T).astype(int), fmt="%+d")
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
    for snr in spec.snr_grid_db:                          # validates each point's scenario
        simulate.scenario_at_snr(scenario, snr)
    T, report, _, _ = run_ce_design(scenario, spec.bits, spec.seed, spec.method,
                                    CeDesignParams(seed=spec.seed, **_limits(spec)))
    curve = detection_curve(T, scenario, spec.bits, spec.snr_grid_db,
                            spec.pfa, spec.trials, spec.seed)
    # the block size fixes the Monte Carlo streams; the worker count does not
    # change a result but is recorded with it
    prov = provenance(scenario, spec, {"bits": spec.bits, "pfa": spec.pfa, "trials": spec.trials,
                                       "mc_block_trials": simulate._BLOCK_TRIALS,
                                       "mc_workers": simulate._WORKERS})
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
    written in any case, the first of them making the output directory.
    """
    scenario = load_scenario(spec.scenario)
    return 0 if HANDLERS[spec.command](spec, scenario, Path(spec.out_dir)) else 1


def _load_design(path: str, scenario: Scenario) -> np.ndarray:
    """Read a design file: phases in degrees, or a +-1 sign grid."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)    # an empty file's "no data"
            raw = np.loadtxt(path, ndmin=2)      # one column (n_rf = 1) stays n_tx x 1
    except OSError as exc:
        raise ModelError(f"cannot read design file {path!r}: {exc}") from exc
    except (ValueError, UserWarning) as exc:
        raise ModelError(f"design file {path!r} is not a numeric matrix: {exc}") from exc
    if raw.shape != (scenario.n_tx, scenario.n_rf):
        raise ModelError(f"design shape {raw.shape} does not match "
                         f"({scenario.n_tx}, {scenario.n_rf})")
    if not np.all(np.isfinite(raw)):
        raise ModelError(f"design file {path!r} holds non-finite entries")
    if np.all(np.isin(raw, (-1.0, 1.0))):
        return raw / np.sqrt(scenario.n_tx)
    return unit_modulus(np.radians(raw), scenario.n_tx)
