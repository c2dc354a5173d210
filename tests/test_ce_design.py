import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cebeam import ce_design as C
from cebeam import model as M
from cebeam import onebit as OB
from cebeam.power_alloc import PowerProfile


def minorizer(T, prof, pen):
    problem = C.design_problem(prof, *T.shape)
    return C.minorizer_matrix(C.evaluate_iterate(T, problem), problem, pen)


def map_T(T, prof, pen):
    """One map step from the matrix T, as a matrix."""
    problem = C.design_problem(prof, *T.shape)
    return C.mm_map(C.evaluate_iterate(T, problem), problem, pen).T


def steering_and_lambda(profile, n_tx):
    """A and the pattern-Gram top eigenvalue, built inline, apart from ``DesignProblem``."""
    A = M.steering_matrix(profile.all_angles(), n_tx)
    lam = float(np.linalg.eigvalsh(np.abs(A.conj().T @ A) ** 2)[-1]) if A.shape[1] else 0.0
    return A, lam


def gaps_of(T, profile, A):
    """Pattern gaps sum_r |(A^T T)[p, r]|^2 - level_p, in pattern_terms' operations."""
    return np.sum(np.abs(A.T @ T) ** 2, axis=-1) - profile.all_levels()


def random_profile(rng, n_target=3, n_clutter=3):
    angles = np.sort(rng.uniform(-1.4, 1.4, n_target + n_clutter))
    levels = rng.uniform(0.0, 1.0, n_target + n_clutter)
    return PowerProfile(angles[:n_target], levels[:n_target],
                        angles[n_target:], levels[n_target:])


class TestBeampatternMse:
    def test_perfect_match_is_zero(self):
        rng = np.random.default_rng(0)
        T = M.random_unit_modulus(8, 2, rng)
        angles = np.array([-0.5, 0.2, 0.9])
        achieved = M.beampattern_powers(T, angles)
        prof = PowerProfile(angles[:1], np.clip(achieved[:1], 0, 1),
                            angles[1:], np.clip(achieved[1:], 0, 1))
        # levels clipped to [0,1]; realized powers of a random T there already
        if np.all(achieved <= 1.0):
            assert C.beampattern_mse(T, prof) == pytest.approx(0.0, abs=1e-12)

    def test_single_angle_unit_gap(self):
        T = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
        prof = PowerProfile(np.array([0.3]), np.array([0.0]), np.zeros(0), np.zeros(0))
        # orthonormal columns put power exactly 1 everywhere
        assert C.beampattern_mse(T, prof) == pytest.approx(1.0, abs=1e-12)

    def test_loop_oracle(self):
        rng = np.random.default_rng(1)
        T = M.random_unit_modulus(16, 3, rng)
        prof = random_profile(rng)
        oracle = sum((M.beampattern_power(T, th) - lvl) ** 2
                     for th, lvl in zip(prof.all_angles(), prof.all_levels()))
        assert C.beampattern_mse(T, prof) == pytest.approx(oracle, rel=1e-12)


class TestPenalizedObjective:
    def test_orthonormal_columns_zero_penalty(self):
        T = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
        prof = PowerProfile(np.array([0.0]), np.array([1.0]), np.zeros(0), np.zeros(0))
        assert C.penalized_objective(T, prof, 5.0) == pytest.approx(
            C.beampattern_mse(T, prof), abs=1e-12)

    def test_coherent_columns_penalty_value(self):
        n_tx = 8
        T = np.full((n_tx, 2), 1.0 / np.sqrt(n_tx), dtype=complex)
        prof = PowerProfile(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0))
        sigma = 3.0
        assert C.penalized_objective(T, prof, sigma) == pytest.approx(sigma * 2.0, rel=1e-12)

    def test_zero_penalty_equals_mse(self):
        rng = np.random.default_rng(2)
        T = M.random_unit_modulus(8, 2, rng)
        prof = random_profile(rng)
        assert C.penalized_objective(T, prof, 0.0) == pytest.approx(
            C.beampattern_mse(T, prof), rel=1e-14)


class TestMinorizer:
    def test_empty_profile_zero_matrix(self):
        T = M.random_unit_modulus(6, 2, np.random.default_rng(0))
        prof = PowerProfile(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0))
        state = minorizer(T, prof, 0.0)
        np.testing.assert_array_equal(state.q_matrix, np.zeros((6, 6)))
        assert state.lambda_max == 0.0

    def test_hermitian_and_trace_identity(self):
        rng = np.random.default_rng(3)
        T = M.random_unit_modulus(8, 2, rng)
        prof = random_profile(rng)
        pen = 0.7
        state = minorizer(T, prof, pen)
        Q = state.q_matrix
        assert np.allclose(Q, Q.conj().T, atol=1e-10)
        achieved = M.beampattern_powers(T, prof.all_angles())
        # steering vectors are unit norm, Tr(T T^H) = n_rf for unit modulus
        expected = np.sum(achieved - prof.all_levels()) + pen * T.shape[1]
        assert np.trace(Q).real == pytest.approx(expected, rel=1e-10)

    def test_lambda_max_dominates_rayleigh_quotients(self):
        rng = np.random.default_rng(4)
        T = M.random_unit_modulus(8, 3, rng)
        state = minorizer(T, random_profile(rng), 0.5)
        for _ in range(30):
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            v /= np.linalg.norm(v)
            assert (v.conj() @ state.q_matrix @ v).real <= state.lambda_max + 1e-10

    def test_kronecker_eigenvalue_identity(self):
        rng = np.random.default_rng(5)
        for n_rf in (1, 2, 3):
            T = M.random_unit_modulus(6, n_rf, rng)
            state = minorizer(T, random_profile(rng), 0.3)
            kron = np.kron(np.eye(n_rf), state.q_matrix)
            assert np.linalg.eigvalsh(kron)[-1] == pytest.approx(state.lambda_max, abs=1e-9)

    def test_quadratic_upper_bound_in_lifted_space(self):
        # Z(T) <= Z(X) + 2 Re<Q(X), TT^H - XX^H> + lam_P ||TT^H - XX^H||_F^2
        rng = np.random.default_rng(6)
        for _ in range(100):
            n_tx, n_rf = 8, rng.integers(1, 4)
            T = M.random_unit_modulus(n_tx, n_rf, rng)
            X = M.random_unit_modulus(n_tx, n_rf, rng)
            prof = random_profile(rng)
            pen = float(rng.uniform(0, 2))
            lam_p = C.design_problem(prof, n_tx, n_rf).gram_lambda + pen
            state = minorizer(X, prof, pen)
            delta = T @ T.conj().T - X @ X.conj().T
            bound = (C.penalized_objective(X, prof, pen)
                     + 2.0 * np.trace(state.q_matrix @ delta).real
                     + lam_p * np.linalg.norm(delta) ** 2)
            assert C.penalized_objective(T, prof, pen) <= bound + 1e-9


    @pytest.mark.parametrize("pen", [0.0, 0.7])
    def test_scratch_keeps_every_bit(self, pen):
        # the in-place build in the problem's scratch against the plain
        # expression it replaced, on a scratch holding NaN and then Q itself
        rng = np.random.default_rng(8)
        T = M.random_unit_modulus(12, 3, rng)
        prof = random_profile(rng)
        A, _ = steering_and_lambda(prof, 12)
        Q = (A.conj() * gaps_of(T, prof, A)) @ A.T
        if pen != 0.0:
            Q = Q + pen * (T @ T.conj().T)
        Q = 0.5 * (Q + Q.conj().T)
        problem = C.design_problem(prof, 12, 3)
        problem.work[...] = np.nan
        x = C.evaluate_iterate(T, problem)
        for _ in range(2):
            state = C.minorizer_matrix(x, problem, pen)
            assert np.shares_memory(state.q_matrix, problem.work)
            np.testing.assert_array_equal(state.q_matrix, Q)


# minor page faults over 15 SQUAREM iterations of a 128-antenna design, after
# 5 of warm-up: default128 itself (the low-rank minorizer), or 66 profile
# angles with 8 RF chains (r = 74 > 64, so the dense path and its scratch)
_STAGE2_FAULTS = """
import resource, sys
import numpy as np
from cebeam import model as M
from cebeam.ce_design import CeDesignParams, squarem_accelerated_mm
from cebeam.pipeline import load_scenario, run_power_allocation
from cebeam.power_alloc import PowerProfile
sc = load_scenario("default128")
if sys.argv[1] == "default128":
    profile = run_power_allocation(sc, 1).profile
else:
    angles = np.linspace(-1.4, 1.4, 66)
    levels = np.random.default_rng(1).uniform(0.0, 1.0, 66)
    profile = PowerProfile(angles[:6], levels[:6], angles[6:], levels[6:])
faults = {}
def monitor(it, T):
    faults[it] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
T0 = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(0))
squarem_accelerated_mm(T0, profile, CeDesignParams(max_iters=20), monitor=monitor)
print(faults[20] - faults[5])
"""


def _stage2_faults(case: str) -> int:
    # one BLAS thread, as multithreaded OpenBLAS allocates per call on its own
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(C.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _STAGE2_FAULTS, case], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux page faults")
def test_design_loop_does_not_page_fault():
    # fresh 128 x 128 temporaries on every map made glibc return the top of the
    # heap to the OS and fault it back in: about 6,000 faults here
    assert _stage2_faults("default128") < 100


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux page faults")
def test_dense_design_loop_does_not_page_fault():
    # the same bound where the dense minorizer builds Q in its reused scratch
    assert not C.takes_low_rank(128, 66 + 8)
    assert _stage2_faults("dense") < 100


class TestMmMap:
    def test_output_unit_modulus(self):
        rng = np.random.default_rng(7)
        T = M.random_unit_modulus(16, 2, rng)
        T2 = map_T(T, random_profile(rng), 0.1)
        assert M.is_unit_modulus(T2, 16, tol=1e-14)

    def test_descent_from_random_starts(self):
        rng = np.random.default_rng(8)
        prof = random_profile(rng, 3, 3)
        pen = 0.05
        for _ in range(50):
            T = M.random_unit_modulus(16, 2, rng)
            before = C.penalized_objective(T, prof, pen)
            after = C.penalized_objective(map_T(T, prof, pen), prof, pen)
            assert after <= before + 1e-9

    def test_kronecker_block_structure(self):
        # applying (shift I - I (x) Q) to vec(T) equals the per-column update
        rng = np.random.default_rng(9)
        n_tx, n_rf = 6, 3
        T = M.random_unit_modulus(n_tx, n_rf, rng)
        prof = random_profile(rng)
        state = minorizer(T, prof, 0.4)
        shift = 10.0
        t = T.reshape(-1, order="F")
        big = np.kron(np.eye(n_rf), state.q_matrix)
        w_vec = (shift * np.eye(n_tx * n_rf) - big) @ t
        w_cols = (shift * np.eye(n_tx) - state.q_matrix) @ T
        np.testing.assert_allclose(w_vec.reshape((n_tx, n_rf), order="F"), w_cols, atol=1e-12)

    def test_exact_fixed_point_of_pure_penalty(self):
        # orthonormal unit-modulus columns (DFT) with no pattern constraints:
        # the update matrix acts as a positive scalar, so phases are untouched
        n_tx, n_rf = 8, 3
        dft = np.exp(-2j * np.pi * np.outer(np.arange(n_tx), np.arange(n_rf)) / n_tx)
        T = dft / np.sqrt(n_tx)
        prof = PowerProfile(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0))
        T_next = map_T(T, prof, 0.3)
        np.testing.assert_allclose(T_next, T, atol=1e-14)

    def test_stationarity_after_long_run(self):
        rng = np.random.default_rng(10)
        prof = random_profile(rng)
        T = M.random_unit_modulus(12, 2, rng)
        for _ in range(3000):
            T = map_T(T, prof, 0.2)
        obj = C.penalized_objective(T, prof, 0.2)
        T_again = map_T(T, prof, 0.2)
        assert np.linalg.norm(T_again - T) < 1e-6
        assert C.penalized_objective(T_again, prof, 0.2) <= obj + 1e-12

    def test_phase_update_minimizes_linear_surrogate(self):
        # closed form vs 360-bin grid search per entry at n_tx=2, n_rf=1
        rng = np.random.default_rng(11)
        n_tx = 2
        prof = PowerProfile(np.array([0.4]), np.array([0.8]), np.zeros(0), np.zeros(0))
        T = M.random_unit_modulus(n_tx, 1, rng)
        state = minorizer(T, prof, 0.3)
        shift = state.lambda_max + 7.0
        B = np.kron(np.eye(1), state.q_matrix) - shift * np.eye(n_tx)
        t_m = T.reshape(-1, order="F")

        def surrogate(t):
            return np.real(t_m.conj() @ B @ t)

        W = (shift * np.eye(n_tx) - state.q_matrix) @ T
        closed = C._project_phases(W, T, n_tx).reshape(-1, order="F")
        best = np.inf
        grid = np.linspace(0, 2 * np.pi, 360, endpoint=False)
        for p0 in grid:
            for p1 in grid:
                cand = np.exp(1j * np.array([p0, p1])) / np.sqrt(n_tx)
                best = min(best, surrogate(cand))
        assert surrogate(closed) <= best + 1e-6


class TestDesignLoops:
    def test_fixed_point_start_converges_immediately(self):
        n_tx, n_rf = 8, 3
        dft = np.exp(-2j * np.pi * np.outer(np.arange(n_tx), np.arange(n_rf)) / n_tx)
        T = dft / np.sqrt(n_tx)
        prof = PowerProfile(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0))
        T_out, trace = C.squarem_accelerated_mm(T, prof, C.CeDesignParams(max_iters=400))
        assert trace.iterations <= 1
        assert trace.converged
        np.testing.assert_allclose(T_out, T, atol=1e-14)

    @pytest.mark.parametrize("runner", [C.plain_mm, C.squarem_accelerated_mm])
    def test_monotone_between_penalty_bumps(self, runner, desk_scenario):
        from cebeam.power_alloc import bcd_power_allocation
        prof = bcd_power_allocation(desk_scenario, M.quantization_model(1)).profile
        rng = np.random.default_rng(13)
        T0 = M.random_unit_modulus(desk_scenario.n_tx, desk_scenario.n_rf, rng)
        T, trace = runner(T0, prof, C.CeDesignParams(max_iters=300, seed=13))
        for i in range(1, trace.iterations):
            if trace.penalty[i] == trace.penalty[i - 1]:
                assert trace.objective[i] <= trace.objective[i - 1] + 1e-9

    def test_determinism(self, desk_scenario):
        from cebeam.power_alloc import bcd_power_allocation
        prof = bcd_power_allocation(desk_scenario, M.quantization_model(1)).profile
        params = C.CeDesignParams(max_iters=120, seed=5)
        T0 = M.random_unit_modulus(32, 8, np.random.default_rng(5))
        T_a, tr_a = C.squarem_accelerated_mm(T0, prof, params)
        T_b, tr_b = C.squarem_accelerated_mm(T0, prof, params)
        np.testing.assert_array_equal(T_a, T_b)
        np.testing.assert_array_equal(tr_a.objective, tr_b.objective)

    def test_penalty_schedule_growth(self, desk_scenario):
        from cebeam.power_alloc import bcd_power_allocation
        prof = bcd_power_allocation(desk_scenario, M.quantization_model(1)).profile
        params = C.CeDesignParams(max_iters=120, tol=1e-30)
        T0 = M.random_unit_modulus(32, 8, np.random.default_rng(6))
        _, trace = C.plain_mm(T0, prof, params)
        assert trace.iterations == 120
        assert C.PENALTY_PERIOD == 50
        assert trace.penalty[0] == C.PENALTY_INIT
        # bumps after iterations 50 and 100
        assert trace.penalty[-1] == pytest.approx(C.PENALTY_INIT * C.PENALTY_GROWTH ** 2)
        assert np.count_nonzero(np.diff(trace.penalty)) == 2

    def test_accelerated_beats_plain_per_map_eval(self, desk_scenario):
        from cebeam.power_alloc import bcd_power_allocation
        prof = bcd_power_allocation(desk_scenario, M.quantization_model(1)).profile
        rng = np.random.default_rng(14)
        T0 = M.random_unit_modulus(desk_scenario.n_tx, desk_scenario.n_rf, rng)
        params = C.CeDesignParams(max_iters=400, tol=1e-12, seed=14)
        _, tr_mm = C.plain_mm(T0, prof, params)
        _, tr_am = C.squarem_accelerated_mm(T0, prof, params)
        target_mse = tr_mm.mse[-1]
        evals_plain = np.argmax(tr_mm.mse <= target_mse) + 1          # one eval/iter
        hit = np.nonzero(tr_am.mse <= target_mse)[0]
        assert hit.size, "accelerated run never reached the plain-MM level"
        evals_accel = 2 * (hit[0] + 1)                                # two evals/iter
        assert evals_accel < evals_plain

    def test_unit_modulus_all_the_way(self, desk_scenario):
        from cebeam.power_alloc import bcd_power_allocation
        prof = bcd_power_allocation(desk_scenario, M.quantization_model(1)).profile
        T0 = M.random_unit_modulus(32, 8, np.random.default_rng(15))
        T, _ = C.squarem_accelerated_mm(T0, prof, C.CeDesignParams(max_iters=150))
        assert M.is_unit_modulus(T, 32, tol=1e-14)

    def test_orthogonality_residual_reaches_target(self, desk_scenario):
        from cebeam.power_alloc import bcd_power_allocation
        prof = bcd_power_allocation(desk_scenario, M.quantization_model(1)).profile
        T0 = M.random_unit_modulus(32, 8, np.random.default_rng(16))
        T, trace = C.squarem_accelerated_mm(T0, prof, C.CeDesignParams(max_iters=2500))
        assert trace.orth_residual[-1] < 0.05


_SCRATCH = ("work", "scaled", "gram_work", "d_work")


@pytest.mark.parametrize("n_tx", [40, 12], ids=["low-rank", "dense"])
@pytest.mark.parametrize("design", ["plain", "accelerated", "epm"])
def test_one_problem_per_design(monkeypatch, design, n_tx):
    # each design builds the profile's steering once, into one problem, and
    # writes none of the problem's arrays but the minorizers' scratch; the
    # fixed A^T conj(A) block of the Gram scratch keeps its built value
    builds, problems = [], []
    steering, build = C.steering_matrix, C.design_problem

    def counted_steering(*args):
        builds.append(args)
        return steering(*args)

    def recorded_problem(*args):
        problem = build(*args)
        arrays = {f.name: getattr(problem, f.name).copy() for f in dataclasses.fields(problem)
                  if f.name not in _SCRATCH and isinstance(getattr(problem, f.name), np.ndarray)}
        P = problem.A.shape[1]
        problems.append((problem, arrays, problem.gram_work[:P, :P].copy()))
        return problem

    monkeypatch.setattr(C, "steering_matrix", counted_steering)
    monkeypatch.setattr(C, "design_problem", recorded_problem)
    monkeypatch.setattr(OB, "design_problem", recorded_problem)
    prof = random_profile(np.random.default_rng(40), 3, 3)
    T0 = M.random_unit_modulus(n_tx, 2, np.random.default_rng(41))
    if design == "epm":
        t0 = OB.round_to_signs(np.real(T0), n_tx, 2).reshape(-1, order="F")
        _, trace = OB.nesterov_epm(t0, prof, n_tx, 2, OB.OneBitParams(max_iters=20))
    else:
        runner = C.plain_mm if design == "plain" else C.squarem_accelerated_mm
        _, trace = runner(T0, prof, C.CeDesignParams(max_iters=20, tol=1e-30))
    assert trace.iterations > 1
    assert len(builds) == len(problems) == 1
    problem, arrays, steering_block = problems[0]
    assert problem.low_rank == (n_tx == 40)
    assert set(arrays) == ({"A", "A_conj", "levels", "eye_rf"}
                           | (set() if problem.low_rank else {"eye"}))
    for name, before in arrays.items():
        np.testing.assert_array_equal(getattr(problem, name), before, err_msg=name)
    P = problem.A.shape[1]
    np.testing.assert_allclose(steering_block, problem.A.T @ problem.A_conj, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(problem.gram_work[:P, :P], steering_block)


def test_norm_is_numpy_norm_bit_for_bit():
    # the helper repeats np.linalg.norm's own formula, whatever the layout
    rng = np.random.default_rng(12)
    X = rng.standard_normal((128, 8)) + 1j * rng.standard_normal((128, 8))
    for view in (X, X.T, X[3:100:3, 1:7], X.T[::2], X[:, 5], np.empty((0, 3), complex)):
        assert C._norm(view) == float(np.linalg.norm(view))
    T = X[:, :3]
    assert C.orthogonality_residual(T) == float(np.linalg.norm(T.conj().T @ T - np.eye(3)))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_lapack_values_are_numpy_linalg_bit_for_bit():
    # the gufuncs behind np.linalg.eigvalsh and svd(compute_uv=False), at the
    # stage-2 loops' shapes: Hermitian 32, 27 (desk32's Gram), 23 (default128's)
    # and 8 (T^H T); T at 32 x 8 and 128 x 8, unit-modulus and general
    rng = np.random.default_rng(13)
    for n in (32, 27, 23, 8):
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for H in (X + X.conj().T, X.conj().T @ X):
            got = C._lapack_values(C.eigvalsh_lo, H)
            assert got.tobytes() == np.linalg.eigvalsh(H).tobytes()
            assert got[-1].tobytes() == np.linalg.eigvalsh(H)[-1].tobytes()
    for n_tx in (32, 128):
        for T in (M.random_unit_modulus(n_tx, 8, rng),
                  rng.standard_normal((n_tx, 8)) + 1j * rng.standard_normal((n_tx, 8))):
            got = C._lapack_values(C.svd, T)[0]
            assert got.tobytes() == np.linalg.svd(T, compute_uv=False)[0].tobytes()
    # a failed solve raises, as the public calls do
    for gufunc, public in ((C.eigvalsh_lo, np.linalg.eigvalsh),
                           (C.svd, lambda A: np.linalg.svd(A, compute_uv=False))):
        bad = np.full((8, 8), np.nan, dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            public(bad)
        with pytest.raises(np.linalg.LinAlgError):
            C._lapack_values(gufunc, bad)


class TestParams:
    def test_invalid_params_rejected(self):
        with pytest.raises(M.ModelError):
            C.CeDesignParams(tol=0.0)
        with pytest.raises(M.ModelError):
            C.CeDesignParams(max_iters=0)

    @pytest.mark.parametrize("field", ["tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_params_rejected(self, field, value):
        # NaN passes every "<= 0" test
        with pytest.raises(M.ModelError):
            C.CeDesignParams(**{field: value})


@st.composite
def small_designs(draw):
    """A random small profile with a complex unit-modulus and a real one-bit design."""
    n_tx = draw(st.integers(2, 5))
    n_rf = draw(st.integers(1, 8 // n_tx))
    angles = draw(st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=6, unique=True))
    angles = np.asarray(angles)
    levels = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=angles.size,
                                      max_size=angles.size)))
    n_target = draw(st.integers(1, angles.size))
    prof = PowerProfile(angles[:n_target], levels[:n_target],
                        angles[n_target:], levels[n_target:])
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    T_ce = M.random_unit_modulus(n_tx, n_rf, rng)
    T_bit = rng.choice([-1.0, 1.0], (n_tx, n_rf)) / np.sqrt(n_tx)
    return prof, T_ce, T_bit, draw(st.floats(0.0, 2.0))


class TestPatternCore:
    """Every user of the shared pattern core against the per-angle oracle."""

    @staticmethod
    def oracle_gaps(T, prof):
        return np.array([M.beampattern_power(T, th) - lvl
                         for th, lvl in zip(prof.all_angles(), prof.all_levels())])

    @settings(max_examples=60, deadline=None)
    @given(small_designs())
    def test_pattern_users_match_per_angle_oracle(self, case):
        prof, T_ce, T_bit, penalty = case
        n_tx, n_rf = T_bit.shape
        for T in (T_ce, T_bit):
            gaps = self.oracle_gaps(T, prof)
            mse = float(np.sum(gaps ** 2))
            assert C.beampattern_mse(T, prof) == pytest.approx(mse, rel=1e-10, abs=1e-13)
            A = M.steering_matrix(prof.all_angles(), n_tx)
            Q = (A.conj() * gaps) @ A.T
            np.testing.assert_allclose(minorizer(T, prof, 0.0).q_matrix, Q,
                                       rtol=0, atol=1e-12 * max(1.0, np.abs(Q).max()))
        mse_bit = float(np.sum(self.oracle_gaps(T_bit, prof) ** 2))
        t = T_bit.reshape(-1, order="F")
        assert OB.epm_objective(t, prof, n_tx, n_rf, 0.0, 0.0) == pytest.approx(
            mse_bit, rel=1e-10, abs=1e-13)
        # the exhaustive search scores its argmin as the penalized objective does
        T_opt, value = OB.exhaustive_onebit(C.design_problem(prof, n_tx, n_rf), n_tx, n_rf,
                                            penalty)
        assert value == pytest.approx(C.penalized_objective(T_opt, prof, penalty), rel=1e-12)


def _low_rank(T, angles, gaps, penalty):
    """``_low_rank_minorizer`` on a record holding T with arbitrary gaps.

    Returns the problem, whose A steers toward ``angles``, and the result.
    """
    prof = PowerProfile(angles, np.zeros(len(angles)), [], [])
    problem = C.design_problem(prof, *T.shape)
    x = C.Iterate(T, problem.A.T @ T, gaps, 0.0, 0.0, T.conj().T @ T)
    return problem, C._low_rank_minorizer(x, problem, penalty)


def _check_low_rank(n_tx, n_rf, angles, gaps, penalty, seed, shift):
    """Low-rank lambda_max and (shift*I - Q) T_m against the dense Q.

    Returns whether the minorizer fell back to the thin QR.
    """
    T = M.random_unit_modulus(n_tx, n_rf, np.random.default_rng(seed))
    A = M.steering_matrix(angles, n_tx)
    gaps = np.asarray(gaps, dtype=float)
    Q = (A.conj() * gaps) @ A.T + penalty * (T @ T.conj().T)
    Q = 0.5 * (Q + Q.conj().T)
    problem, (lam, q_t, sigma, fell_back) = _low_rank(T, angles, gaps, penalty)
    # below the normal range a value carries no relative accuracy (the Gram
    # route refuses such a Q for that reason), so the tolerance stops there
    tol = max(1e-12 * np.linalg.norm(Q, 2), np.finfo(float).tiny)
    assert abs(lam - np.linalg.eigvalsh(Q)[-1]) <= tol
    assert sigma == pytest.approx(np.linalg.norm(T, 2), rel=1e-14)
    state = C.MinorizerState(None, q_t, lam, 1.0)
    dense = (shift * np.eye(n_tx) - Q) @ T
    # plus the dense product's own rounding of shift * I - Q
    assert np.linalg.norm(state.direction(problem, T, shift) - dense) <= \
        (tol + 1e-15 * abs(shift)) * np.linalg.norm(T)
    return fell_back


@st.composite
def low_rank_cases(draw):
    n_tx = draw(st.integers(2, 40))
    n_rf = draw(st.integers(1, 4))
    n_angles = draw(st.integers(0, 12))
    angles = draw(st.lists(st.floats(-1.5, 1.5), min_size=n_angles, max_size=n_angles,
                           unique=True))
    high = draw(st.sampled_from([3.0, -1e-3]))          # mixed or all-negative gaps
    gaps = draw(st.lists(st.floats(-3.0, high), min_size=n_angles, max_size=n_angles))
    penalty = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    shift = draw(st.floats(-10.0, 50.0))
    return n_tx, n_rf, angles, gaps, penalty, seed, shift


class TestLowRankMinorizer:
    """The matrix-free minorizer against the dense Q."""

    @settings(max_examples=300, deadline=None)
    @given(low_rank_cases())
    # subnormal Q, where 1e-12 ||Q||_2 underflows: the thin QR gives 5e-324
    # and dense eigvalsh 0, or the two differ in the last subnormal bit
    @example(case=(2, 1, [], [], 5e-324, 0, 0.0))
    @example(case=(4, 1, [0.0], [2.2250738585e-313], 0.0, 0, 0.0))
    def test_matches_dense_oracle(self, case):
        _check_low_rank(*case)

    @pytest.mark.parametrize("n_tx, n_rf, angles, gaps, penalty", [
        (16, 2, [], [], 0.0),                                 # empty profile, Q = 0
        (16, 2, [], [], 0.8),                                 # penalty only
        (24, 3, [-0.9, 0.1, 0.7], [-0.5, -0.2, -0.9], 0.0),  # Q <= 0 and singular
        (24, 3, [-0.9, 0.1, 0.7], [-0.5, 0.2, -0.9], 0.0),
        (5, 4, [-0.9, -0.2, 0.1, 0.7], [-0.5, -0.2, -0.1, -0.9], 0.0),   # r = 4 < 5
        (5, 4, [-0.9, -0.2, 0.1, 0.7], [0.5, -0.2, 0.1, -0.9], 1.3),     # r = 8 > 5
    ])
    def test_edge_cases(self, n_tx, n_rf, angles, gaps, penalty):
        _check_low_rank(n_tx, n_rf, angles, gaps, penalty, seed=3, shift=4.0)

    @pytest.mark.parametrize("n_tx, n_rf, angles, gaps, penalty", [
        # two profile angles 1e-13 apart: B^H B is numerically singular
        (40, 2, [-0.6, 0.2, 0.2 + 1e-13, 0.9], [0.4, -0.3, 0.8, -0.1], 0.7),
        (40, 2, [-0.6, 0.2, 0.2 + 1e-13, 0.9], [-0.4, -0.3, -0.8, -0.1], 0.0),
    ])
    def test_degenerate_cases_take_the_thin_qr(self, n_tx, n_rf, angles, gaps, penalty):
        assert _check_low_rank(n_tx, n_rf, angles, gaps, penalty, seed=5, shift=3.0)

    def test_well_separated_profile_takes_the_gram(self):
        angles = np.linspace(-1.2, 1.2, 10)
        assert not _check_low_rank(48, 4, angles, np.linspace(-0.5, 0.5, 10), 0.3,
                                   seed=6, shift=2.0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    def test_sigma_max_from_column_gram(self, n_tx, n_rf, seed):
        # sqrt(lambda_max(T^H T)) is the spectral norm of a unit-modulus T
        n_rf = min(n_rf, n_tx)
        T = M.random_unit_modulus(n_tx, n_rf, np.random.default_rng(seed))
        _, (_, _, sigma, _) = _low_rank(T, [], np.zeros(0), 0.0)
        assert sigma == pytest.approx(np.linalg.norm(T, 2), rel=1e-14)

    def test_all_negative_gaps_clamp_to_zero(self):
        # Q has null directions when r < n_tx, so lambda_max(Q) = 0 exactly
        T = M.random_unit_modulus(20, 2, np.random.default_rng(0))
        _, (lam, _, _, _) = _low_rank(T, [-0.4, 0.3], np.array([-0.3, -0.6]), 0.0)
        assert lam == 0.0

    def test_sides_of_the_crossover(self):
        # default128 goes matrix-free; desk32 keeps the dense path bit for bit
        from cebeam.pipeline import load_scenario
        sides = {}
        for name in ("default128", "desk32"):
            sc = load_scenario(name)
            sides[name] = C.takes_low_rank(sc.n_tx, sc.profile_angles().size + sc.n_rf)
        assert sides == {"default128": True, "desk32": False}

    def test_minorizer_matrix_dispatch(self):
        rng = np.random.default_rng(20)
        prof = random_profile(rng, 3, 3)
        for n_tx, low in ((40, True), (12, False)):
            T = M.random_unit_modulus(n_tx, 2, rng)
            state = minorizer(T, prof, 0.4)
            assert (state.q_matrix is None) == low
            assert (state.q_times_t is None) != low

    def test_trace_counts_the_maps_that_took_the_thin_qr(self):
        # two profile angles 1e-13 apart leave B^H B singular in every map
        T0 = M.random_unit_modulus(40, 2, np.random.default_rng(22))
        params = C.CeDesignParams(max_iters=12, tol=1e-30)
        for angles, every in (([-0.5, 0.2, 0.2 + 1e-13], True), ([-0.5, 0.2, 0.6], False)):
            prof = PowerProfile(angles[:2], [0.9, 0.7], angles[2:], [0.05])
            _, trace = C.squarem_accelerated_mm(T0, prof, params)
            assert trace.counters()["gram_fallbacks"] == (trace.map_evals if every else 0)
            assert trace.map_evals > 0

    def test_low_rank_map_descends(self):
        rng = np.random.default_rng(21)
        prof = random_profile(rng, 3, 3)
        assert C.takes_low_rank(48, 6 + 2)
        for _ in range(30):
            T = M.random_unit_modulus(48, 2, rng)
            before = C.penalized_objective(T, prof, 0.05)
            after = C.penalized_objective(map_T(T, prof, 0.05), prof, 0.05)
            assert after <= before + 1e-9


def _parent_objective(T, profile, penalty):
    """The penalized objective as it stood before the evaluated-iterate record."""
    A, _ = steering_and_lambda(profile, T.shape[0])
    mse = float(np.sum(gaps_of(T, profile, A) ** 2))
    orth = float(np.linalg.norm(T.conj().T @ T - np.eye(T.shape[1])))
    return mse + penalty * orth ** 2


def _parent_project(Z, fallback, n_tx):
    """The phase projection as it stood before the lean map, operation for operation."""
    phases = np.angle(Z)
    dead = np.abs(Z) == 0.0
    if np.any(dead):
        phases[dead] = np.angle(fallback)[dead]
    return np.exp(1j * phases) / np.sqrt(n_tx)


def _parent_mm_map(T_m, profile, penalty):
    """The dense map as it stood before the low-rank path, operation for operation."""
    n_tx, n_rf = T_m.shape
    A, gram_lambda = steering_and_lambda(profile, n_tx)
    Q = np.matmul(A.conj() * gaps_of(T_m, profile, A), A.T)
    if penalty != 0.0:
        gram = np.matmul(T_m, T_m.conj().T)
        gram *= penalty
        Q += gram
    Q += np.conjugate(Q.T)
    Q *= 0.5
    lam = float(np.linalg.eigvalsh(Q)[-1])
    sigma = float(np.linalg.norm(T_m, 2))
    lam_p = gram_lambda + penalty
    base = _parent_objective(T_m, profile, penalty)
    for shift in (lam + 0.5 * (sigma + 1.05) ** 2 * lam_p, lam + 2.0 * n_rf * lam_p):
        T_new = _parent_project((shift * np.eye(n_tx) - Q) @ T_m, T_m, n_tx)
        if _parent_objective(T_new, profile, penalty) <= base + 1e-12:
            return T_new
    return T_m


def _parent_low_rank_map(T_m, profile, penalty):
    """The low-rank map as it stood before the lean map, operation for operation."""
    n_tx, n_rf = T_m.shape
    A, gram_lambda = steering_and_lambda(profile, n_tx)
    A_conj, steering_gram = A.conj(), (A.conj().T @ A).conj()
    Z = A.T @ T_m
    gaps = np.sum(np.abs(Z) ** 2, axis=-1) - profile.all_levels()
    gram = T_m.conj().T @ T_m
    G, d = steering_gram, gaps
    if penalty != 0.0:
        P = gaps.size
        G = np.empty((P + n_rf, P + n_rf), dtype=complex)
        G[:P, :P] = steering_gram
        G[:P, P:] = Z
        G[P:, :P] = Z.conj().T
        G[P:, P:] = gram
        d = np.concatenate((d, np.full(n_rf, float(penalty))))
    eigs = None
    if 2 * d.size <= n_tx:
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            L = None
        if L is not None:
            eigs = np.linalg.eigvalsh((L.conj().T * d) @ L)
            if d.size:
                g = float(G.diagonal().real.max())
                p_min = float(L.diagonal().real.min())
                q_norm = max(-float(eigs[0]), float(eigs[-1]))
                error = d.size * np.finfo(float).eps * float(np.abs(d).max()) * g * math.sqrt(g)
                if not (q_norm >= np.finfo(float).tiny
                        and error <= C.GRAM_ERROR_LIMIT * p_min * q_norm):
                    eigs = None
    if eigs is None:
        B = A_conj if penalty == 0.0 else np.concatenate((A_conj, T_m), axis=1)
        R = np.linalg.qr(B, mode="r")
        eigs = np.linalg.eigvalsh((R * d) @ R.conj().T)
    lam = float(np.max(eigs, initial=0.0) if d.size < n_tx else eigs[-1])
    sigma_max = math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))
    q_t = A_conj @ (gaps[:, None] * Z) + penalty * (T_m @ gram)
    lam_p = gram_lambda + penalty
    base = _parent_objective(T_m, profile, penalty)
    for shift in (lam + 0.5 * (sigma_max + 1.05) ** 2 * lam_p, lam + 2.0 * n_rf * lam_p):
        T_new = _parent_project(shift * T_m - q_t, T_m, n_tx)
        if _parent_objective(T_new, profile, penalty) <= base + 1e-12:
            return T_new
    return T_m


def _parent_map(T_m, profile, penalty):
    """The parent's map on the side of the crossover that T_m and the profile take."""
    low_rank = C.takes_low_rank(T_m.shape[0], profile.all_angles().size + T_m.shape[1])
    return (_parent_low_rank_map if low_rank else _parent_mm_map)(T_m, profile, penalty)


def _parent_squarem(T, profile, penalty, iters):
    """The accelerated loop's iterates at a fixed penalty, before the record."""
    n_tx = T.shape[0]
    out = []
    for _ in range(iters):
        T1 = _parent_map(T, profile, penalty)
        T2 = _parent_map(T1, profile, penalty)
        Y1 = T1 - T
        Y2 = T2 - T1 - Y1
        n2 = np.linalg.norm(Y2)
        T_new = T2
        if n2 > 0.0:
            kappa = -np.linalg.norm(Y1) / n2
            T_acc = _parent_project(T - 2.0 * kappa * Y1 + kappa ** 2 * Y2, T, n_tx)
            if _parent_objective(T_acc, profile, penalty) <= \
                    _parent_objective(T2, profile, penalty):
                T_new = T_acc
        T = T_new
        out.append(T)
    return out


def _assert_fresh(x, problem):
    """A carried record holds exactly what a fresh evaluation of its point gives."""
    fresh = C.evaluate_iterate(x.T, problem)
    for name in ("Z", "gaps", "gram"):
        np.testing.assert_array_equal(getattr(x, name), getattr(fresh, name))
    assert (x.mse, x.orth) == (fresh.mse, fresh.orth)


def test_dense_map_is_bit_identical_below_crossover(desk_scenario):
    # a desk32-sized problem (r = 27, n_tx = 32) stays on the dense path, bit for bit
    from cebeam.power_alloc import bcd_power_allocation
    prof = bcd_power_allocation(desk_scenario, M.quantization_model(1)).profile
    assert not C.takes_low_rank(desk_scenario.n_tx, prof.all_angles().size + desk_scenario.n_rf)
    T = M.random_unit_modulus(desk_scenario.n_tx, desk_scenario.n_rf, np.random.default_rng(30))
    problem = C.design_problem(prof, desk_scenario.n_tx, desk_scenario.n_rf)
    _poison(problem)
    x = C.evaluate_iterate(T, problem)
    for penalty in (0.01, 0.01, 0.3, 0.3, 2.0):
        expected = _parent_mm_map(x.T, prof, penalty)
        np.testing.assert_array_equal(C.mm_map(x, problem, penalty).T, expected)
        x = C.mm_map(x, problem, penalty)
        np.testing.assert_array_equal(x.T, expected)
        _assert_fresh(x, problem)


def _poison(problem):
    """NaN in every scratch array of the problem, except the Gram's fixed steering block."""
    P = problem.levels.size
    for name in ("work", "scaled", "d_work"):
        if getattr(problem, name) is not None:
            getattr(problem, name)[...] = np.nan
    problem.gram_work[P:] = np.nan
    problem.gram_work[:P, P:] = np.nan


def test_low_rank_map_is_bit_identical_to_parent():
    # default128 with its 1-bit profile (r = 23, n_tx = 128) takes the Gram route, bit for bit
    from cebeam.pipeline import load_scenario, run_power_allocation
    sc = load_scenario("default128")
    prof = run_power_allocation(sc, 1).profile
    problem = C.design_problem(prof, sc.n_tx, sc.n_rf)
    assert problem.low_rank
    _poison(problem)
    x = C.evaluate_iterate(M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(34)),
                           problem)
    for penalty in (0.0, 0.01, 0.01, 0.3, 0.3, 2.0):
        expected = _parent_low_rank_map(x.T, prof, penalty)
        x = C.mm_map(x, problem, penalty)
        np.testing.assert_array_equal(x.T, expected)
        _assert_fresh(x, problem)


@pytest.mark.parametrize("n_tx", [40, 12], ids=["low-rank", "dense"])
@pytest.mark.parametrize("runner", [C.plain_mm, C.squarem_accelerated_mm])
def test_layer_counts_per_map(monkeypatch, runner, n_tx):
    # every point is evaluated once: one minorizer per map evaluation, each map
    # evaluates one candidate per shift it tries and never its own base point,
    # and no loop goes through penalized_objective; the trace counts the fallbacks
    counts = {"minorizer": 0, "objective": 0}
    evaluated, per_map = [], []
    minorizer_fn, objective, mm_map, evaluate = (C.minorizer_matrix, C.penalized_objective,
                                                 C.mm_map, C.evaluate_iterate)

    def counted_minorizer(*args, **kwargs):
        counts["minorizer"] += 1
        return minorizer_fn(*args, **kwargs)

    def counted_objective(*args, **kwargs):
        counts["objective"] += 1
        return objective(*args, **kwargs)

    def counted_evaluate(T, *args, **kwargs):
        evaluated.append(T)
        return evaluate(T, *args, **kwargs)

    def counted_map(x, *args, **kwargs):
        before = len(evaluated)
        result = mm_map(x, *args, **kwargs)
        points = evaluated[before:]
        assert all(T is not x.T for T in points)
        per_map.append((len(points), result is x, result is not x and result.fallback))
        return result

    monkeypatch.setattr(C, "minorizer_matrix", counted_minorizer)
    monkeypatch.setattr(C, "penalized_objective", counted_objective)
    monkeypatch.setattr(C, "evaluate_iterate", counted_evaluate)
    monkeypatch.setattr(C, "mm_map", counted_map)
    prof = random_profile(np.random.default_rng(31), 3, 3)
    assert C.takes_low_rank(n_tx, 6 + 2) == (n_tx == 40)
    T0 = M.random_unit_modulus(n_tx, 2, np.random.default_rng(32))
    _, trace = runner(T0, prof, C.CeDesignParams(max_iters=40, tol=1e-30))
    assert counts["minorizer"] == trace.map_evals == len(per_map) > 0
    assert counts["objective"] == 0
    for n_points, stall, fallback in per_map:
        assert n_points == (2 if stall or fallback else 1)
    assert trace.stalls == sum(stall for _, stall, _ in per_map)
    assert trace.shift_rejections == sum(n == 2 for n, _, _ in per_map)
    assert any(n == 1 for n, _, _ in per_map)
    # T0, the map candidates, and one extrapolated point per accelerated iteration
    extrapolated = len(evaluated) - 1 - sum(n for n, _, _ in per_map)
    assert extrapolated <= (trace.iterations if runner is C.squarem_accelerated_mm else 0)
    assert 0 <= trace.squarem_rejections <= trace.iterations


def test_accelerated_loop_is_bit_identical_to_parent():
    # the loop carries records from map to map; its iterates are the parent's,
    # on both sides of the crossover (r = 9: dense at 12 antennas, low-rank at 40)
    # 30 iterations stay inside the first penalty period
    assert C.PENALTY_PERIOD > 30
    params = C.CeDesignParams(max_iters=30, tol=1e-30)
    for n_tx in (12, 40):
        rng = np.random.default_rng(33)
        prof = random_profile(rng, 3, 3)
        T0 = M.random_unit_modulus(n_tx, 3, rng)
        seen = []
        C.squarem_accelerated_mm(T0, prof, params, monitor=lambda it, T: seen.append(T))
        expected = _parent_squarem(T0, prof, C.PENALTY_INIT, len(seen))
        assert len(seen) == 30
        for T, T_ref in zip(seen, expected):
            np.testing.assert_array_equal(T, T_ref)


def _parent_epm(t, profile, n_tx, n_rf, penalty_orth, penalty_bin):
    """The EPM objective and gradient as they stood before the fused point."""
    T = t.reshape((n_tx, n_rf), order="F")
    A, _ = steering_and_lambda(profile, n_tx)
    Z = A.T @ T
    gaps = np.sum(np.abs(Z) ** 2, axis=-1) - profile.all_levels()
    gap = n_rf - np.sqrt(n_rf) * np.linalg.norm(t)
    gram = T.T @ T - np.eye(n_rf)
    value = float(np.sum(gaps ** 2)) + penalty_bin * gap + penalty_orth * float(np.sum(gram ** 2))
    g_pattern = np.real(A.conj() @ ((4.0 * gaps)[:, None] * Z))
    g_bin = -penalty_bin * np.sqrt(n_rf) / np.linalg.norm(t) * T
    g_orth = 4.0 * penalty_orth * T @ (T.T @ T - np.eye(n_rf))
    return value, (g_pattern + g_bin + g_orth).reshape(-1, order="F")


class TestEvaluateOnce:
    """Values read off an evaluated record equal a fresh evaluation, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(small_designs(), st.floats(0.05, 1.0), st.floats(0.0, 2.0))
    def test_records_match_fresh_values(self, case, shrink, penalty_bin):
        prof, T_ce, T_bit, penalty = case
        problem = C.design_problem(prof, *T_ce.shape)
        x = C.evaluate_iterate(T_ce, problem)
        for pen in (penalty, 1.5 * penalty):
            assert x.objective(pen) == C.penalized_objective(T_ce, prof, pen) \
                == _parent_objective(T_ce, prof, pen)
        # two maps chained through records against the parent's map
        T_ref = T_ce
        for _ in range(2):
            x = C.mm_map(x, problem, penalty)
            T_ref = _parent_mm_map(T_ref, prof, penalty)
            np.testing.assert_array_equal(x.T, T_ref)
            _assert_fresh(x, problem)
        # the fused EPM value and gradient, also right after a penalty change
        n_tx, n_rf = T_bit.shape
        t = shrink * T_bit.reshape(-1, order="F")
        point = OB.epm_point(t, problem, n_tx, n_rf)
        for po, pb in ((penalty, penalty_bin), (1.5 * penalty, 1.3 * penalty_bin)):
            grad = point.gradient(problem, po, pb)
            value = point.objective(po, pb)
            ref_value, ref_grad = _parent_epm(t, prof, n_tx, n_rf, po, pb)
            assert value == OB.epm_objective(t, prof, n_tx, n_rf, po, pb) == ref_value
            np.testing.assert_array_equal(grad, OB.epm_gradient(t, prof, n_tx, n_rf, po, pb))
            np.testing.assert_array_equal(grad, ref_grad)
