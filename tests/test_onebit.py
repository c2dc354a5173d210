import numpy as np
import pytest

from cebeam import ce_design as C
from cebeam import model as M
from cebeam import onebit as OB
from cebeam.power_alloc import PowerProfile

from oracle import exhaustive_onebit, steering_vector


def dense_quadratic_forms(angles, n_tx, n_rf):
    """Materialized Re(I (x) a* a^T) matrices, the naive reference."""
    mats = []
    for th in np.atleast_1d(angles):
        a = steering_vector(th, n_tx)
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

    def test_each_point_evaluated_once(self, monkeypatch):
        # the loop evaluates t0, each extrapolated point and each backtracking
        # candidate once, and never goes through the wrappers
        evaluated = []
        point = OB.epm_point

        def counted_point(t, *args):
            evaluated.append(t)
            return point(t, *args)

        def wrapper_called(*args):
            raise AssertionError("the loop re-evaluated a point through a wrapper")

        monkeypatch.setattr(OB, "epm_point", counted_point)
        monkeypatch.setattr(OB, "epm_objective", wrapper_called)
        monkeypatch.setattr(OB, "epm_gradient", wrapper_called)
        rng = np.random.default_rng(12)
        t0 = rng.choice([-1.0, 1.0], 16 * 2) * 0.9 / 4.0
        _, tr = OB.nesterov_epm(t0, three_angle_profile(), 16, 2, OB.OneBitParams(max_iters=300))
        assert len({id(t) for t in evaluated}) == len(evaluated)
        assert tr.halvings > 0
        # t0, one extrapolated point per iteration, one rejected candidate per
        # halving, and at most two accepted candidates per iteration (a reset)
        accepted = len(evaluated) - 1 - tr.iterations - tr.halvings
        assert tr.momentum_resets <= accepted <= tr.iterations + tr.momentum_resets


class TestParams:
    @pytest.mark.parametrize("field", ["tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_params_rejected(self, field, value):
        with pytest.raises(M.ModelError):
            OB.OneBitParams(**{field: value})


class TestExhaustive:
    def test_two_element_single_beam(self):
        prof = PowerProfile(np.array([0.0]), np.array([1.0]), np.zeros(0), np.zeros(0))
        T, val = exhaustive_onebit(C.design_problem(prof, 2, 1), 2, 1, 1.0)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert abs(T[0, 0]) == abs(T[1, 0]) == pytest.approx(1 / np.sqrt(2))
        assert T[0, 0] == T[1, 0]   # coherent pair (either all + or all -)

    def test_beats_random_patterns(self):
        prof = three_angle_profile()
        T, val = exhaustive_onebit(C.design_problem(prof, 4, 2), 4, 2, 1.0)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            R = rng.choice([-1.0, 1.0], (4, 2)) / 2.0
            assert C.penalized_objective(R, prof, 1.0) >= val - 1e-12

    def test_sign_flip_invariance(self):
        prof = three_angle_profile()
        T, val = exhaustive_onebit(C.design_problem(prof, 4, 2), 4, 2, 1.0)
        assert C.penalized_objective(-T, prof, 1.0) == pytest.approx(val, rel=1e-12)

    def test_size_limit_enforced(self):
        with pytest.raises(M.ModelError):
            exhaustive_onebit(C.design_problem(three_angle_profile(), 8, 4), 8, 4, 1.0)


class TestRounding:
    def test_zeros_round_up(self):
        t = np.array([0.0, -0.1, 0.2, 0.0])
        T = OB.round_to_signs(t, 2, 2)
        np.testing.assert_allclose(np.abs(T), 1 / np.sqrt(2))
        assert T[0, 0] == pytest.approx(+1 / np.sqrt(2))   # zero entry rounds up
        assert T[1, 0] == pytest.approx(-1 / np.sqrt(2))
        assert T[1, 1] == pytest.approx(+1 / np.sqrt(2))   # trailing zero, column-major


def _parent_box_project(t, n_tx):
    """``box_project`` as it stood before the lean loop, operation for operation."""
    bound = 1.0 / np.sqrt(n_tx)
    return np.clip(t, -bound, bound)


class _ParentPoint:
    """``epm_point`` and ``EpmPoint.gradient`` as they stood before the lean loop."""

    def __init__(self, t, problem, n_tx, n_rf):
        self.problem = problem
        self.t = t = np.asarray(t, float).reshape(-1)
        self.T = T = t.reshape((n_tx, n_rf), order="F")
        self.Z, self.gaps = C.pattern_terms(T, problem)
        self.norm = np.linalg.norm(t)
        self.gram = T.T @ T - problem.eye_rf
        self.mse = float(np.sum(self.gaps ** 2))
        self.binary_gap = n_rf - np.sqrt(n_rf) * self.norm
        self.orth = float(np.sum(self.gram ** 2))

    def objective(self, penalty_orth, penalty_bin):
        return self.mse + penalty_bin * self.binary_gap + penalty_orth * self.orth

    def gradient(self, penalty_orth, penalty_bin):
        n_rf = self.T.shape[1]
        g_pattern = np.real(self.problem.A_conj @ ((4.0 * self.gaps)[:, None] * self.Z))
        g_bin = -penalty_bin * np.sqrt(n_rf) / self.norm * self.T
        g_orth = 4.0 * penalty_orth * self.T @ self.gram
        return (g_pattern + g_bin + g_orth).reshape(-1, order="F")


def _parent_epm(t0, profile, n_tx, n_rf, params):
    """``nesterov_epm`` as it stood before the lean loop, on the copied formulas."""
    problem = C.design_problem(profile, n_tx, n_rf)
    point = lambda v: _ParentPoint(v, problem, n_tx, n_rf)
    t = _parent_box_project(np.asarray(t0, float).reshape(-1).copy(), n_tx)
    pen_o, pen_b = OB.PENALTY_ORTH_INIT, OB.PENALTY_BIN_INIT
    tau = 1.0
    x = point(t)
    t_prev = t.copy()
    f_cur = x.objective(pen_o, pen_b)
    hist = {"objective": [], "grad_norm": [], "binary_gap": [], "penalty_orth": [],
            "penalty_bin": []}
    counts = {"momentum_resets": 0, "halvings": 0}

    def backtrack(base, f_base, g_base):
        mu = 1.0
        for _ in range(50):
            cand = _parent_box_project(base.t - mu * g_base, n_tx)
            delta = cand - base.t
            if not np.any(delta):
                return base, f_base, True
            x_cand = point(cand)
            f_cand = x_cand.objective(pen_o, pen_b)
            if f_cand <= f_base + 1e-4 * float(g_base @ delta):
                return x_cand, f_cand, False
            mu *= 0.5
            counts["halvings"] += 1
        raise AssertionError("the line search stalled")

    for it in range(1, params.max_iters + 1):
        t = x.t
        tau_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tau * tau))
        w = t + (tau - 1.0) / tau_next * (t - t_prev)
        w = _parent_box_project(w, n_tx)
        x_w = x if np.linalg.norm(w) == 0.0 else point(w)
        x_new, f_new, fixed = backtrack(x_w, x_w.objective(pen_o, pen_b),
                                        x_w.gradient(pen_o, pen_b))
        if f_new > f_cur:
            x_new, f_new, fixed = backtrack(x, f_cur, x.gradient(pen_o, pen_b))
            tau_next = 1.0
            counts["momentum_resets"] += 1
        t_prev, x = t, x_new
        f_cur = min(f_new, f_cur) if fixed else f_new
        tau = tau_next
        gnorm = float(np.linalg.norm(x.gradient(pen_o, pen_b)))
        for values, v in zip(hist.values(), (f_cur, gnorm, x.binary_gap, pen_o, pen_b)):
            values.append(v)
        if gnorm <= params.tol or (fixed and not np.any(x.t - t_prev)):
            break
        if it % OB.PENALTY_PERIOD == 0:
            pen_o *= OB.PENALTY_ORTH_GROWTH
            pen_b *= OB.PENALTY_BIN_GROWTH
            f_cur = x.objective(pen_o, pen_b)
    return OB.round_to_signs(x.t, n_tx, n_rf), hist, counts


def _bytes(value):
    return np.asarray(value).tobytes()


def _desk32_profile(desk_scenario):
    from cebeam.power_alloc import power_profile
    return power_profile(desk_scenario)


class TestLeanLoopIsTheParent:
    """The EPM point, its gradient, the box projection and the loop, bit for bit
    against operation-for-operation copies of the formulas they replace."""

    def test_points_and_gradients(self, desk_scenario):
        rng = np.random.default_rng(13)
        cases = [(three_angle_profile(), 16, 2),
                 (_desk32_profile(desk_scenario), desk_scenario.n_tx, desk_scenario.n_rf)]
        penalties = [(0.01, 0.02), (0.3, 0.7), (0.3, 0.7), (2.0, 5.0), (0.01, 0.02)]
        for prof, n_tx, n_rf in cases:
            problem = C.design_problem(prof, n_tx, n_rf)
            bound = 1.0 / np.sqrt(n_tx)
            for _ in range(20):
                u = rng.uniform(-1.5, 1.5, n_tx * n_rf) * bound
                u[rng.choice(u.size, 6, replace=False)] = [0.0, -0.0, bound, -bound,
                                                           np.inf, -np.inf]
                assert OB.box_project(u, n_tx).tobytes() == _parent_box_project(u, n_tx).tobytes()
                t = _parent_box_project(u, n_tx)
                t[rng.choice(t.size, 4, replace=False)] = [0.0, -0.0, 0.0, -0.0]
                got, ref = OB.epm_point(t, problem, n_tx, n_rf), _ParentPoint(t, problem, n_tx, n_rf)
                for name in ("t", "T", "Z", "gaps", "norm", "gram", "mse", "binary_gap", "orth"):
                    assert _bytes(getattr(got, name)) == _bytes(getattr(ref, name)), name
                for po, pb in penalties:
                    assert _bytes(got.objective(po, pb)) == _bytes(ref.objective(po, pb))
                    assert _bytes(got.gradient(problem, po, pb)) == _bytes(ref.gradient(po, pb))

    @pytest.mark.parametrize("case", ["16x2", "desk32"])
    def test_loop_traces_and_signs(self, case, desk_scenario):
        rng = np.random.default_rng(14)
        if case == "16x2":
            prof, n_tx, n_rf = three_angle_profile(), 16, 2
            t0 = rng.choice([-1.0, 1.0], n_tx * n_rf) * 0.9 / 4.0
        else:
            prof, n_tx, n_rf = _desk32_profile(desk_scenario), desk_scenario.n_tx, desk_scenario.n_rf
            t0 = rng.choice([-1.0, 1.0], n_tx * n_rf) / np.sqrt(n_tx)
        params = OB.OneBitParams(max_iters=300)
        T, trace = OB.nesterov_epm(t0, prof, n_tx, n_rf, params)
        T_ref, hist, counts = _parent_epm(t0, prof, n_tx, n_rf, params)
        assert T.tobytes() == T_ref.tobytes()
        for name, values in hist.items():
            assert getattr(trace, name).tobytes() == np.asarray(values).tobytes(), name
        assert (trace.momentum_resets, trace.halvings) == (counts["momentum_resets"],
                                                           counts["halvings"])
        assert trace.iterations > OB.PENALTY_PERIOD and trace.momentum_resets > 0
