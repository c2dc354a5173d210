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
           (f"{MODEL_LOW_RANK}::test_lrt_form_matches_dense_inverses",)),
    Mutant("c1-without-quantizer-floor", "model.py",
           "c1 = q.alpha ** 2 * L * scenario.noise_power + q.alpha * q.beta * L * row1",
           "c1 = q.alpha ** 2 * L * scenario.noise_power",
           (f"{MODEL_LOW_RANK}::test_lrt_matrix_matches_inverses",)),
    Mutant("eager-h0-run", "simulate.py",
           "_h0_statistics=partial(stats, _H0, None, model.row0)",
           "_h0_statistics=(lambda h0: lambda: h0)(stats(_H0, None, model.row0))",
           ("tests/test_simulate.py::TestFalseAlarmRunOnDemand::test_sweep_snr_draws_no_h0_trial",
            "tests/test_simulate.py::TestFalseAlarmRunOnDemand::"
            "test_h0_run_made_once_on_first_read")),
    # caught only by comparing bits; a change that re-pins this test needs
    # another killer first
    Mutant("optimistic-shift-0.5", "ce_design.py",
           "(state.sigma_max + 1.05) ** 2", "(state.sigma_max + 0.5) ** 2",
           ("tests/test_ce_design.py::test_dense_map_is_bit_identical_below_crossover",)),
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
