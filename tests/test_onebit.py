import numpy as np
import pytest

from cebeam import ce_design as C
from cebeam import model as M
from cebeam import onebit as OB
from cebeam.power_alloc import PowerProfile


def dense_quadratic_forms(angles, n_tx, n_rf):
    """Materialized Re(I (x) a* a^T) matrices, the naive reference."""
    mats = []
    for th in np.atleast_1d(angles):
        a = M.steering_vector(th, n_tx)
        mats.append(np.real(np.kron(np.eye(n_rf), np.outer(a.conj(), a))))
    return mats


def three_angle_profile():
    return PowerProfile(np.radians([0.0]), np.array([1.0]),
                        np.radians([-50.0, 55.0]), np.zeros(2))


class TestBoxProject:
    def test_interior_unchanged(self):
        t = np.array([0.1, -0.2, 0.0])
        np.testing.assert_array_equal(OB.box_project(t, 16), t)

    def test_clamps_to_wall(self):
        assert OB.box_project(np.array([5.0]), 4)[0] == 0.5
        assert OB.box_project(np.array([-5.0]), 4)[0] == -0.5

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(-3, 3, 20)
        once = OB.box_project(t, 9)
        np.testing.assert_array_equal(OB.box_project(once, 9), once)


class TestVUpdate:
    def test_basis_vector_scaling(self):
        e1 = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(OB.v_update(e1, 4), 2.0 * e1)

    def test_cauchy_schwarz_equality(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal(12)
        v = OB.v_update(t, 3)
        assert np.linalg.norm(v) ** 2 == pytest.approx(3.0, rel=1e-12)
        assert t @ v == pytest.approx(np.sqrt(3.0) * np.linalg.norm(t), rel=1e-12)

    def test_beats_dense_sphere_grid(self):
        t = np.array([0.8, -0.6])
        n_rf = 2
        v_star = OB.v_update(t, n_rf)
        best = -np.inf
        for phi in np.linspace(0, 2 * np.pi, 3600, endpoint=False):
            v = np.sqrt(n_rf) * np.array([np.cos(phi), np.sin(phi)])
            best = max(best, t @ v)
        assert t @ v_star >= best - 1e-6

    def test_zero_vector_raises(self):
        with pytest.raises(OB.DegenerateIterateError):
            OB.v_update(np.zeros(4), 2)


class TestEpmObjective:
    def test_feasible_perfect_match_is_zero(self):
        # t = [1, 1]/sqrt(2): unit column norm, pattern power 1 at broadside
        t = np.array([1.0, 1.0]) / np.sqrt(2)
        prof = PowerProfile(np.array([0.0]), np.array([1.0]), np.zeros(0), np.zeros(0))
        val = OB.epm_objective(t, prof, 2, 1, penalty_orth=3.0, penalty_bin=5.0)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_binary_gap_nonnegative_on_box(self):
        rng = np.random.default_rng(2)
        n_tx, n_rf = 6, 2
        for _ in range(200):
            t = rng.uniform(-1, 1, n_tx * n_rf) / np.sqrt(n_tx)
            gap = n_rf - np.sqrt(n_rf) * np.linalg.norm(t)
            assert gap >= -1e-12

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(3)
        n_tx, n_rf = 8, 2
        prof = three_angle_profile()
        mats = dense_quadratic_forms(prof.all_angles(), n_tx, n_rf)
        for _ in range(10):
            t = rng.uniform(-0.9, 0.9, n_tx * n_rf) / np.sqrt(n_tx)
            po, pb = rng.uniform(0.1, 2.0, 2)
            naive = 0.0
            for Phi, lvl in zip(mats, prof.all_levels()):
                naive += (t @ Phi @ t - lvl) ** 2
            naive += pb * (n_rf - np.sqrt(n_rf) * np.linalg.norm(t))
            Tm = t.reshape((n_tx, n_rf), order="F")
            naive += po * np.sum((Tm.T @ Tm - np.eye(n_rf)) ** 2)
            mine = OB.epm_objective(t, prof, n_tx, n_rf, po, pb)
            assert mine == pytest.approx(naive, rel=1e-12)


class TestEpmGradient:
    def test_central_finite_differences(self):
        rng = np.random.default_rng(4)
        n_tx, n_rf = 8, 2
        prof = PowerProfile(np.radians([-2.0, 0.0, 2.0]), np.ones(3),
                            np.radians([-30.0, 20.0, 50.0]), np.zeros(3))
        h = 1e-6
        worst = 0.0
        for _ in range(20):
            t = rng.uniform(-0.9, 0.9, n_tx * n_rf) / np.sqrt(n_tx)
            g = OB.epm_gradient(t, prof, n_tx, n_rf, 0.7, 0.3)
            for i in rng.choice(t.size, 6, replace=False):
                e = np.zeros(t.size)
                e[i] = h
                fd = (OB.epm_objective(t + e, prof, n_tx, n_rf, 0.7, 0.3)
                      - OB.epm_objective(t - e, prof, n_tx, n_rf, 0.7, 0.3)) / (2 * h)
                worst = max(worst, abs(g[i] - fd) / max(abs(fd), 1e-8))
        assert worst < 1e-5

    def test_orthogonality_part_matches_zeroed_entry_form(self):
        # per-entry derivative written through the matrix with entry (i,j)
        # zeroed equals the closed matrix form 4 T (T^T T - I)
        rng = np.random.default_rng(5)
        T = rng.uniform(-1, 1, (5, 3))
        n_rf = 3
        G = np.empty_like(T)
        for i in range(5):
            for j in range(n_rf):
                Tb = T.copy()
                Tb[i, j] = 0.0
                gram = Tb.T @ Tb - np.eye(n_rf)
                G[i, j] = (4 * T[i, j] ** 3
                           + 4 * T[i, j] * (gram[j, j] + (Tb @ Tb.T)[i, i])
                           + 4 * (Tb @ gram)[i, j])
        np.testing.assert_allclose(G, 4 * T @ (T.T @ T - np.eye(n_rf)), atol=1e-12)

    def test_symmetric_point_has_equal_columns(self):
        n_tx, n_rf = 6, 2
        prof = PowerProfile(np.array([0.0]), np.array([1.0]), np.zeros(0), np.zeros(0))
        t = np.full(n_tx * n_rf, 0.5 / np.sqrt(n_tx))
        g = OB.epm_gradient(t, prof, n_tx, n_rf, 0.4, 0.2).reshape((n_tx, n_rf), order="F")
        np.testing.assert_allclose(g[:, 0], g[:, 1], atol=1e-12)

    def test_cubic_scaling_of_pure_quartic(self):
        n_tx, n_rf = 6, 2
        prof = PowerProfile(np.array([0.3]), np.array([0.0]), np.zeros(0), np.zeros(0))
        rng = np.random.default_rng(6)
        t = rng.uniform(-0.2, 0.2, n_tx * n_rf)
        g1 = OB.epm_gradient(t, prof, n_tx, n_rf, 0.0, 0.0)
        g2 = OB.epm_gradient(2.0 * t, prof, n_tx, n_rf, 0.0, 0.0)
        np.testing.assert_allclose(g2, 8.0 * g1, rtol=1e-10)

    def test_zero_vector_raises(self):
        with pytest.raises(OB.DegenerateIterateError):
            OB.epm_gradient(np.zeros(8), three_angle_profile(), 4, 2, 0.1, 0.1)


class TestNesterovEpm:
    def test_momentum_sequence_start(self):
        assert 0.5 * (1 + np.sqrt(1 + 4 * 1.0 ** 2)) == pytest.approx((1 + np.sqrt(5)) / 2)

    def test_output_exactly_one_bit(self):
        rng = np.random.default_rng(7)
        t0 = rng.choice([-1.0, 1.0], 8) * 0.9 / 2.0
        T, _ = OB.nesterov_epm(t0, three_angle_profile(), 4, 2, OB.OneBitParams())
        assert np.all(np.isin(T, (-0.5, 0.5)))

    def test_objective_never_increases_between_bumps(self):
        rng = np.random.default_rng(8)
        t0 = rng.choice([-1.0, 1.0], 16 * 2) * 0.9 / 4.0
        prof = three_angle_profile()
        _, tr = OB.nesterov_epm(t0, prof, 16, 2, OB.OneBitParams(max_iters=400))
        for i in range(1, tr.iterations):
            same_penalties = (tr.penalty_orth[i] == tr.penalty_orth[i - 1]
                              and tr.penalty_bin[i] == tr.penalty_bin[i - 1])
            if same_penalties:
                assert tr.objective[i] <= tr.objective[i - 1] + 1e-12

    def test_global_sign_symmetry(self):
        rng = np.random.default_rng(9)
        prof = three_angle_profile()
        t0 = rng.choice([-1.0, 1.0], 8) * 0.9 / 2.0
        Ta, _ = OB.nesterov_epm(t0, prof, 4, 2, OB.OneBitParams())
        Tb, _ = OB.nesterov_epm(-t0, prof, 4, 2, OB.OneBitParams())
        assert C.penalized_objective(Ta, prof, 1.0) == pytest.approx(
            C.penalized_objective(Tb, prof, 1.0), rel=1e-12)

    def test_iterate_reaches_box_walls(self):
        rng = np.random.default_rng(10)
        prof = PowerProfile(np.radians([-1.0, 0.0, 1.0]), np.ones(3),
                            np.radians([-30.0, 25.0, 60.0]), np.zeros(3))
        t0 = rng.choice([-1.0, 1.0], 64 * 4) * 0.9 / 8.0
        _, tr = OB.nesterov_epm(t0, prof, 64, 4, OB.OneBitParams())
        # binary gap -> 0 means ||t|| -> sqrt(n_rf): every entry on the wall
        assert tr.binary_gap[-1] < 0.05

    def test_zero_start_rejected(self):
        with pytest.raises(OB.DegenerateIterateError):
            OB.nesterov_epm(np.zeros(8), three_angle_profile(), 4, 2, OB.OneBitParams())

    def test_wrong_size_rejected(self):
        with pytest.raises(M.ModelError):
            OB.nesterov_epm(np.ones(7), three_angle_profile(), 4, 2, OB.OneBitParams())


class TestExhaustive:
    def test_two_element_single_beam(self):
        prof = PowerProfile(np.array([0.0]), np.array([1.0]), np.zeros(0), np.zeros(0))
        T, val = OB.exhaustive_onebit(prof, 2, 1, 1.0)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert abs(T[0, 0]) == abs(T[1, 0]) == pytest.approx(1 / np.sqrt(2))
        assert T[0, 0] == T[1, 0]   # coherent pair (either all + or all -)

    def test_beats_random_patterns(self):
        prof = three_angle_profile()
        T, val = OB.exhaustive_onebit(prof, 4, 2, 1.0)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            R = rng.choice([-1.0, 1.0], (4, 2)) / 2.0
            assert C.penalized_objective(R, prof, 1.0) >= val - 1e-12

    def test_sign_flip_invariance(self):
        prof = three_angle_profile()
        T, val = OB.exhaustive_onebit(prof, 4, 2, 1.0)
        assert C.penalized_objective(-T, prof, 1.0) == pytest.approx(val, rel=1e-12)

    def test_size_limit_enforced(self):
        with pytest.raises(M.ModelError):
            OB.exhaustive_onebit(three_angle_profile(), 8, 4, 1.0)


class TestRounding:
    def test_zeros_round_up(self):
        t = np.array([0.0, -0.1, 0.2, 0.0])
        T = OB.round_to_signs(t, 2, 2)
        np.testing.assert_allclose(np.abs(T), 1 / np.sqrt(2))
        assert T[0, 0] == pytest.approx(+1 / np.sqrt(2))   # zero entry rounds up
        assert T[1, 0] == pytest.approx(-1 / np.sqrt(2))
        assert T[1, 1] == pytest.approx(+1 / np.sqrt(2))   # trailing zero, column-major
