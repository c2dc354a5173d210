"""Committed mutants of src/cebeam and the tests that must kill them.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Each mutant names a file of src/cebeam, a text that occurs there exactly once,
its replacement, and the test ids that must fail with it (an id without a
parameter part stands for all of its parametrizations).  The runner copies
src/, tests/ and pyproject.toml into a temporary directory, applies one
mutant there, runs only its tests against the copy, and reports every mutant
that survives: one whose tests do not all fail.  A text that no longer occurs
exactly once is an error, so a refactor updates this list on purpose.  The
exit status is 0 when every mutant is killed.  pytest does not collect this
file.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKERS = 2

MODEL_LOW_RANK = "tests/test_model.py::TestLowRankCovariances"
SURROGATE_PRECISION = "tests/test_power_alloc.py::TestAsymptoticObjective::test_matches_high_precision"
ENGINE = "tests/test_simulate.py::TestPipelinedEngine"
REALIZATION = f"{ENGINE}::test_realization_of_a_seed_is_pinned"
POINT_RUNS = f"{ENGINE}::test_point_runs_match_the_per_block_oracle"
CURVE_POINTS = f"{ENGINE}::test_curve_points_match_the_per_block_oracle"
EXACT_LAW = "tests/test_exact_detection.py::test_ideal_adc_detection_matches_exact_law"
ARCSINE_LAW = "tests/test_simulate.py::TestOneBitArcsineLaw::test_engine_samples_follow_the_law"
KERNEL = ("tests/test_quantizer.py::TestKernelPaths::"
          "test_scaled_codebook_is_the_three_pass_form_bit_for_bit")
SWEEPS = "tests/test_pipeline_cli.py::TestSweeps"
REFUSALS = "tests/test_pipeline_cli.py::TestCliRefusals::test_refused_command_writes_nothing"
TRIAL_CAP = ("tests/test_pipeline_cli.py::TestCli::"
             "test_sweep_snr_trials_past_the_cap_exit_2_before_design")
CLOSED_FORM = "tests/test_power_alloc.py::TestPowerProfile::test_closed_form_is_the_search_optimum"
LOW_POWER_PROFILE = ("tests/test_power_alloc.py::TestBcd::"
                     "test_profile_is_the_same_at_every_low_target_power")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str                      # under src/cebeam
    text: str
    replacement: str
    killers: tuple[str, ...]


MUTANTS = (
    Mutant("delta-as-c1-minus-c0", "model.py",
           "delta = q.alpha * q.beta * L * target_load", "delta = c1 - c0",
           (f"{MODEL_LOW_RANK}::test_entropy_matches_high_precision", SURROGATE_PRECISION)),
    Mutant("kl-series-off", "model.py",
           "np.abs(s) < 1e-2", "np.abs(s) < 0.0",
           (f"{MODEL_LOW_RANK}::test_entropy_matches_high_precision", SURROGATE_PRECISION)),
    Mutant("kl-series-cubic-sign", "model.py",
           "3 / 4, -2 / 3, 1 / 2", "3 / 4, 2 / 3, 1 / 2",
           (f"{MODEL_LOW_RANK}::test_entropy_matches_high_precision", SURROGATE_PRECISION)),
    Mutant("r1-condition-unchecked", "model.py",
           "for spectrum in (levels[None, :], spectrum1):", "for spectrum in (levels[None, :],):",
           (f"{MODEL_LOW_RANK}::test_matches_dense_oracle",)),
    Mutant("gamma-always-0", "model.py",
           "gamma = float(L * (1.0 / self.c0 - 1.0 / self.c1[i])) if m < n_r else 0.0",
           "gamma = 0.0",
           (f"{MODEL_LOW_RANK}::test_lrt_matrix_matches_inverses",
            f"{MODEL_LOW_RANK}::test_lrt_form_matches_dense_inverses")),
    Mutant("one-gram-schmidt-pass", "model.py",
           "for _ in range(2):", "for _ in range(1):",
           (f"{MODEL_LOW_RANK}::test_lrt_form_matches_dense_inverses",
            f"{MODEL_LOW_RANK}::test_lrt_form_matches_high_precision[near-clutter-ideal]")),
    Mutant("c1-without-quantizer-floor", "model.py",
           "c1 = q.alpha ** 2 * L * scenario.noise_power + q.alpha * q.beta * L * row1",
           "c1 = q.alpha ** 2 * L * scenario.noise_power",
           (f"{MODEL_LOW_RANK}::test_lrt_matrix_matches_inverses",)),
    Mutant("eager-h0-run", "simulate.py",
           "h0_run = cache(partial(stats, h0, run=_H0, row_power=row0))",
           "h0_run = (lambda v: lambda: v)(stats(h0, run=_H0, row_power=row0))",
           ("tests/test_simulate.py::TestFalseAlarmRunOnDemand::test_sweep_snr_draws_no_h0_trial",
            "tests/test_simulate.py::TestFalseAlarmRunOnDemand::"
            "test_h0_run_made_once_on_first_read")),
    Mutant("h0-runs-draw-the-target", "simulate.py",
           "h0, row0 = _sources(ref, T, None), models[0].row0",
           "h0, row0 = _sources(ref, T, scenario.target_mean_angle), models[0].row0",
           (POINT_RUNS, CURVE_POINTS, REALIZATION, ARCSINE_LAW)),
    Mutant("h0-run-scaled-by-row1", "simulate.py",
           "h0_run = cache(partial(stats, h0, run=_H0, row_power=row0))",
           "h0_run = cache(partial(stats, h0, run=_H0, row_power=models[0].row1[0]))",
           (POINT_RUNS, CURVE_POINTS, REALIZATION, ARCSINE_LAW)),
    # the block size defines the streams: only the pinned realization sees it
    Mutant("block-trials-256", "simulate.py",
           "_BLOCK_TRIALS = 512", "_BLOCK_TRIALS = 256",
           (REALIZATION,)),
    # an oracle that took its gains from the engine would share this slip:
    # the exact law sees the echo's absolute scale
    Mutant("echo-scaled-by-power-ratio", "simulate.py",
           "gains=[math.sqrt(sc.target_power / ref.target_power) for sc in scs]",
           "gains=[sc.target_power / ref.target_power for sc in scs]",
           (CURVE_POINTS, EXACT_LAW, ARCSINE_LAW)),
    Mutant("later-points-quantized-with-point-0-row1", "simulate.py",
           "row_power=[m.row1[0] for m in models]",
           "row_power=[models[0].row1[0] for m in models]",
           (CURVE_POINTS, ARCSINE_LAW)),
    Mutant("thresholds-with-point-0-form", "simulate.py",
           "thresholds = [float(np.quantile(c, 1.0 - pfa)) for c in calibration]",
           "thresholds = [float(np.quantile(calibration[0], 1.0 - pfa)) for c in calibration]",
           (CURVE_POINTS,)),
    Mutant("row-power-unchecked", "quantizer.py",
           "if not (isinstance(row_power, numbers.Real) and 0.0 < row_power < math.inf):",
           "if False:",
           ("tests/test_quantizer.py::TestQuantizeReceived::"
            "test_row_power_other_than_one_positive_number_refused",)),
    Mutant("one-bit-unscaled", "quantizer.py",
           "quantizer.levels * scale)", "quantizer.levels)",
           (KERNEL, "tests/test_quantizer.py::TestQuantizeReceived::"
            "test_measured_distortion_tracks_table", ARCSINE_LAW)),
    # one bit has no positive threshold, so only the few-bit cases see this
    Mutant("codebook-thresholds-unscaled", "quantizer.py",
           "quantizer.thresholds * scale,", "quantizer.thresholds,",
           (*(f"{KERNEL}[{bits}]" for bits in (2, 3, 4, 5)),
            "tests/test_quantizer.py::TestKernelPaths::"
            "test_quantize_received_matches_per_part_oracle")),
    Mutant("grid-ends-unchecked", "model.py",
           "[self.target_mean_angle - half, self.target_mean_angle + half]",
           "[self.target_mean_angle]",
           ("tests/test_model.py::TestScenario::"
            "test_target_grid_outside_half_circle_or_uncountable_rejected[past-endfire]",
            "tests/test_model.py::TestScenario::"
            "test_target_grid_outside_half_circle_or_uncountable_rejected[past-minus-endfire]",
            "tests/test_pipeline_cli.py::TestCli::test_bad_target_grid_exits_2[past-endfire]")),
    Mutant("epm-binary-gradient-sign", "onebit.py",
           "np.multiply(-penalty_bin * math.sqrt", "np.multiply(penalty_bin * math.sqrt",
           ("tests/test_onebit.py::TestEpmGradient::test_central_finite_differences",)),
    Mutant("surrogate-outside-count", "power_alloc.py",
           "outside = scenario.n_rx - scenario.n_clutter - 1",
           "outside = scenario.n_rx - scenario.n_clutter",
           ("tests/test_power_alloc.py::TestAsymptoticObjective::"
            "test_exact_relative_entropy_recovered_without_clutter", SURROGATE_PRECISION)),
    Mutant("snr-without-target-power-accepted", "simulate.py",
           "if not 0.0 < power < math.inf:", "if False:",
           ("tests/test_simulate.py::TestDetectionInputs::test_snr_without_target_power_refused",
            "tests/test_simulate.py::TestDetectionInputs::"
            "test_snr_without_finite_target_power_refused",
            "tests/test_pipeline_cli.py::TestCli::"
            "test_sweep_snr_bad_snr_exits_2_before_design[-4000]")),
    Mutant("target-grid-points-uncapped", "model.py",
           "< MAX_TARGET_GRID_POINTS - 0.5:", "< math.inf:",
           ("tests/test_model.py::TestScenario::"
            "test_target_grid_outside_half_circle_or_uncountable_rejected[2e6-points]",
            "tests/test_model.py::TestScenario::test_target_grid_may_hold_the_capped_point_count")),
    Mutant("corner-clutter-at-one", "power_alloc.py",
           "np.zeros(scenario.n_clutter)", "np.ones(scenario.n_clutter)",
           (CLOSED_FORM,)),
    Mutant("corner-target-at-half", "power_alloc.py",
           "np.ones(grid.size)", "np.full(grid.size, 0.5)",
           (CLOSED_FORM,)),
    Mutant("bcd-stop-absolute", "power_alloc.py",
           "<= tol * abs(current):", "<= tol:",
           (LOW_POWER_PROFILE,)),
    Mutant("bcd-margin-absolute", "power_alloc.py",
           "1e-9 * abs(vals.max())", "1e-9 * (1.0 + abs(vals.max()))",
           (LOW_POWER_PROFILE,)),
    Mutant("bcd-zero-gain-runs-on", "power_alloc.py",
           "current - before <= tol", "current - before < tol",
           ("tests/test_power_alloc.py::TestBcd::test_zero_target_power_stops",)),
    Mutant("sweep-designs-once-for-n_rf", "pipeline.py",
           'if T is None or swept == "n_rf":', "if T is None:",
           (f"{SWEEPS}::test_designs_once_unless_n_rf_is_swept[n_rf]",)),
    Mutant("snr-points-checked-after-design", "pipeline.py",
           "simulate.scenario_at_snr(scenario, snr)", "pass",
           ("tests/test_pipeline_cli.py::TestCli::"
            "test_sweep_snr_bad_snr_exits_2_before_design[3080]",)),
    Mutant("e-notation-snr-taken-for-a-flag", "cli.py",
           r"([eE][-+]?\d+)?$", "$",
           ("tests/test_pipeline_cli.py::TestCliSpec::test_negative_snr_in_e_notation",)),
    # the output directory made before the handler's input checks run
    Mutant("eager-mkdir", "pipeline.py",
           "    return 0 if HANDLERS[spec.command](spec, scenario, Path(spec.out_dir)) else 1",
           "    Path(spec.out_dir).mkdir(parents=True, exist_ok=True)\n"
           "    return 0 if HANDLERS[spec.command](spec, scenario, Path(spec.out_dir)) else 1",
           (REFUSALS, TRIAL_CAP)),
    Mutant("trials-uncapped", "simulate.py",
           "<= trials <= MAX_TRIALS:", "<= trials:",
           (REFUSALS, TRIAL_CAP)),
    # the bit pin, and the descent bound that the optimistic shift must meet
    Mutant("optimistic-shift-0.5", "ce_design.py",
           "(state.sigma_max + 1.05) ** 2", "(state.sigma_max + 0.5) ** 2",
           ("tests/test_ce_design.py::test_dense_map_is_bit_identical_below_crossover",
            "tests/test_ce_design.py::test_optimistic_shift_covers_each_step_it_takes")),
)


def _failed_ids(output: str) -> set[str]:
    return {m.group(1) for m in re.finditer(r"^FAILED (\S+)", output, re.M)}


def run_mutant(mutant: Mutant) -> tuple[str, str]:
    """(verdict, detail) for one mutant: "killed", "survived" or "error"."""
    with tempfile.TemporaryDirectory(prefix="cebeam-mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / "src" / "cebeam" / mutant.file
        source = target.read_text()
        if source.count(mutant.text) != 1:
            return "error", f"text occurs {source.count(mutant.text)} times in {mutant.file}"
        target.write_text(source.replace(mutant.text, mutant.replacement))
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf",
                               "-p", "no:cacheprovider", *mutant.killers],
                              cwd=work, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        return "error", f"pytest exit status {proc.returncode}\n{proc.stdout[-2000:]}"
    failed = _failed_ids(proc.stdout)
    alive = [k for k in mutant.killers
             if not any(f == k or f.startswith(k + "[") for f in failed)]
    if alive:
        return "survived", "these tests passed: " + ", ".join(alive)
    return "killed", f"{len(failed)} failed tests"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(run_mutant, chosen))
    for mutant, (verdict, detail) in zip(chosen, results):
        print(f"{verdict:8s} {mutant.name}: {detail}")
    return 0 if all(verdict == "killed" for verdict, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
