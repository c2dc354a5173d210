import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cebeam import ce_design as C
from cebeam import model as M
from cebeam import onebit as OB
from cebeam.power_alloc import PowerProfile


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
        state = C.minorizer_matrix(T, prof, 0.0)
        np.testing.assert_array_equal(state.q_matrix, np.zeros((6, 6)))
        assert state.lambda_max == 0.0

    def test_hermitian_and_trace_identity(self):
        rng = np.random.default_rng(3)
        T = M.random_unit_modulus(8, 2, rng)
        prof = random_profile(rng)
        pen = 0.7
        state = C.minorizer_matrix(T, prof, pen)
        Q = state.q_matrix
        assert np.allclose(Q, Q.conj().T, atol=1e-10)
        achieved = M.beampattern_powers(T, prof.all_angles())
        # steering vectors are unit norm, Tr(T T^H) = n_rf for unit modulus
        expected = np.sum(achieved - prof.all_levels()) + pen * T.shape[1]
        assert np.trace(Q).real == pytest.approx(expected, rel=1e-10)

    def test_lambda_max_dominates_rayleigh_quotients(self):
        rng = np.random.default_rng(4)
        T = M.random_unit_modulus(8, 3, rng)
        state = C.minorizer_matrix(T, random_profile(rng), 0.5)
        for _ in range(30):
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            v /= np.linalg.norm(v)
            assert (v.conj() @ state.q_matrix @ v).real <= state.lambda_max + 1e-10

    def test_kronecker_eigenvalue_identity(self):
        rng = np.random.default_rng(5)
        for n_rf in (1, 2, 3):
            T = M.random_unit_modulus(6, n_rf, rng)
            state = C.minorizer_matrix(T, random_profile(rng), 0.3)
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
            lam_p = C.profile_steering(prof, n_tx)[1] + pen
            state = C.minorizer_matrix(X, prof, pen)
            delta = T @ T.conj().T - X @ X.conj().T
            bound = (C.penalized_objective(X, prof, pen)
                     + 2.0 * np.trace(state.q_matrix @ delta).real
                     + lam_p * np.linalg.norm(delta) ** 2)
            assert C.penalized_objective(T, prof, pen) <= bound + 1e-9


class TestMmMap:
    def test_output_unit_modulus(self):
        rng = np.random.default_rng(7)
        T = M.random_unit_modulus(16, 2, rng)
        T2 = C.mm_map(T, random_profile(rng), 0.1)
        assert M.is_unit_modulus(T2, 16, tol=1e-14)

    def test_descent_from_random_starts(self):
        rng = np.random.default_rng(8)
        prof = random_profile(rng, 3, 3)
        pen = 0.05
        for _ in range(50):
            T = M.random_unit_modulus(16, 2, rng)
            before = C.penalized_objective(T, prof, pen)
            after = C.penalized_objective(C.mm_map(T, prof, pen), prof, pen)
            assert after <= before + 1e-9

    def test_kronecker_block_structure(self):
        # applying (shift I - I (x) Q) to vec(T) equals the per-column update
        rng = np.random.default_rng(9)
        n_tx, n_rf = 6, 3
        T = M.random_unit_modulus(n_tx, n_rf, rng)
        prof = random_profile(rng)
        state = C.minorizer_matrix(T, prof, 0.4)
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
        T_next = C.mm_map(T, prof, 0.3)
        np.testing.assert_allclose(T_next, T, atol=1e-14)

    def test_stationarity_after_long_run(self):
        rng = np.random.default_rng(10)
        prof = random_profile(rng)
        T = M.random_unit_modulus(12, 2, rng)
        for _ in range(3000):
            T = C.mm_map(T, prof, 0.2)
        obj = C.penalized_objective(T, prof, 0.2)
        T_again = C.mm_map(T, prof, 0.2)
        assert np.linalg.norm(T_again - T) < 1e-6
        assert C.penalized_objective(T_again, prof, 0.2) <= obj + 1e-12

    def test_phase_update_minimizes_linear_surrogate(self):
        # closed form vs 360-bin grid search per entry at n_tx=2, n_rf=1
        rng = np.random.default_rng(11)
        n_tx = 2
        prof = PowerProfile(np.array([0.4]), np.array([0.8]), np.zeros(0), np.zeros(0))
        T = M.random_unit_modulus(n_tx, 1, rng)
        state = C.minorizer_matrix(T, prof, 0.3)
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
        params = C.CeDesignParams(max_iters=120, penalty_period=40, penalty_growth=2.0,
                                  tol=1e-30)
        T0 = M.random_unit_modulus(32, 8, np.random.default_rng(6))
        _, trace = C.plain_mm(T0, prof, params)
        assert trace.iterations == 120
        assert trace.penalty[0] == params.penalty_init
        assert trace.penalty[-1] == pytest.approx(params.penalty_init * 4.0)

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


class TestParams:
    def test_invalid_params_rejected(self):
        with pytest.raises(M.ModelError):
            C.CeDesignParams(penalty_growth=0.9)
        with pytest.raises(M.ModelError):
            C.CeDesignParams(penalty_init=0.0)
        with pytest.raises(M.ModelError):
            C.CeDesignParams(max_iters=0)


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
            np.testing.assert_allclose(C.minorizer_matrix(T, prof, 0.0).q_matrix, Q,
                                       rtol=0, atol=1e-12 * max(1.0, np.abs(Q).max()))
        mse_bit = float(np.sum(self.oracle_gaps(T_bit, prof) ** 2))
        t = T_bit.reshape(-1, order="F")
        assert OB.epm_objective(t, prof, n_tx, n_rf, 0.0, 0.0) == pytest.approx(
            mse_bit, rel=1e-10, abs=1e-13)
        # the exhaustive search scores its argmin as the penalized objective does
        T_opt, value = OB.exhaustive_onebit(prof, n_tx, n_rf, penalty)
        assert value == pytest.approx(C.penalized_objective(T_opt, prof, penalty), rel=1e-12)
