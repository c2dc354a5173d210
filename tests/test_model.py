import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import j0 as scipy_j0

from cebeam import model as M

from oracle import beampattern_power, steering_vector


class TestSteeringVector:
    def test_broadside_is_uniform(self):
        np.testing.assert_allclose(M.steering_matrix(0.0, 4)[:, 0], np.full(4, 0.5), atol=1e-15)

    def test_endfire_alternates(self):
        a = M.steering_matrix(math.pi / 2, 2)[:, 0]
        np.testing.assert_allclose(a, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)

    def test_unit_norm(self):
        a = M.steering_matrix(0.3, 64)[:, 0]
        assert abs(np.vdot(a, a).real - 1.0) < 1e-12

    def test_matrix_matches_vectors(self):
        thetas = np.array([-0.7, 0.1, 1.2])
        A = M.steering_matrix(thetas, 16)
        for i, th in enumerate(thetas):
            np.testing.assert_allclose(A[:, i], steering_vector(th, 16), atol=1e-14)

    def test_empty_array_rejected(self):
        with pytest.raises(M.ModelError):
            M.steering_matrix(0.0, 0)


class TestQuantizationModel:
    def test_one_bit(self):
        q = M.quantization_model(1)
        assert q.beta == 0.3634 and q.alpha == pytest.approx(0.6366, abs=1e-12)

    def test_four_bit(self):
        q = M.quantization_model(4)
        assert q.beta == 0.009497 and q.alpha == pytest.approx(0.990503, abs=1e-12)

    def test_ideal(self):
        q = M.quantization_model("ideal")
        assert q.beta == 0.0 and q.alpha == 1.0 and q.ideal

    def test_gain_distortion_sum(self):
        for bits in (1, 2, 3, 4, 5):
            q = M.quantization_model(bits)
            assert q.alpha + q.beta == 1.0

    @pytest.mark.parametrize("bad", [0, 6, 17, "fp32", None, 2.5])
    def test_unsupported_resolution(self, bad):
        with pytest.raises(M.UnsupportedResolutionError):
            M.quantization_model(bad)


class TestBeampattern:
    def test_orthonormal_columns_give_unit_power_everywhere(self):
        T = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        np.testing.assert_allclose(M.beampattern_powers(T, np.linspace(-1.5, 1.5, 7)), 1.0,
                                   rtol=0, atol=1e-12)

    def test_column_sum_oracle(self):
        rng = np.random.default_rng(3)
        T = M.random_unit_modulus(16, 3, rng)
        theta = 0.41
        a = steering_vector(theta, 16)
        by_columns = sum(abs(a @ T[:, j]) ** 2 for j in range(3))
        assert M.beampattern_powers(T, [theta])[0] == pytest.approx(by_columns, rel=1e-12)

    def test_coherent_columns_blow_up(self):
        n_tx, n_rf = 16, 4
        T = np.full((n_tx, n_rf), 1.0 / np.sqrt(n_tx))
        assert M.beampattern_powers(T, [0.0])[0] == pytest.approx(n_rf, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        T = M.random_unit_modulus(12, 2, rng)
        thetas = np.linspace(-1.0, 1.0, 9)
        vec = M.beampattern_powers(T, thetas)
        one_by_one = [beampattern_power(T, th) for th in thetas]
        np.testing.assert_allclose(vec, one_by_one, rtol=1e-12)


class TestUnitModulus:
    @pytest.mark.parametrize("n_tx", [1, 7, 32, 128])
    def test_bytes_of_the_complex_exponential(self, n_tx):
        # cos and sin scaled by 1/sqrt(n_tx) against exp(1j * phases) / sqrt(n_tx),
        # byte for byte: the sign of every zero and the last bit of every entry
        rng = np.random.default_rng(11)
        edges = [0.0, -0.0, math.pi, -math.pi, 1e-300, -1e-300, 5e-324, -5e-324]
        phases = np.concatenate((rng.uniform(-4.0, 4.0, 100_000), edges))
        expected = np.exp(1j * phases) / np.sqrt(n_tx)
        assert M.unit_modulus(phases, n_tx).tobytes() == expected.tobytes()
        grid = phases[:1024].reshape(128, 8)
        got = M.unit_modulus(grid.T, n_tx)
        assert got.shape == (8, 128)
        assert got.tobytes() == (np.exp(1j * grid.T) / np.sqrt(n_tx)).tobytes()


def _psd_check(r, tol=1e-9):
    w = np.linalg.eigvalsh(r)
    return w[0] >= -tol * np.trace(r).real


class TestHypothesisCovariances:
    def test_zero_target_power_collapses_hypotheses(self, tiny_scenario):
        sc = M.Scenario(**{**_scenario_kwargs(tiny_scenario), "target_power": 0.0})
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(0))
        cov = M.hypothesis_covariances(sc, T, M.quantization_model(2), sc.target_mean_angle)
        np.testing.assert_array_equal(cov.r0, cov.r1)

    def test_ideal_adc_has_no_quantizer_floor(self, tiny_scenario):
        # alpha^2 L times clutter plus noise, and the target outer product under
        # H1, plus the quantizer floor alpha beta L row * I of each hypothesis,
        # which the ideal ADC (alpha = 1, beta = 0) does not have; built from the
        # per-angle oracles, not from the steering matrix the library uses
        sc, n_r, L = tiny_scenario, tiny_scenario.n_rx, tiny_scenario.code_len
        T = M.random_unit_modulus(8, 2, np.random.default_rng(1))
        A_c = np.column_stack([steering_vector(th, n_r) for th in sc.clutter_angles])
        phi_c = np.array([beampattern_power(T, th) for th in sc.clutter_angles])
        phi_t = beampattern_power(T, 0.1)
        a_t = steering_vector(0.1, n_r)
        row0 = np.sum(sc.clutter_powers * phi_c) / n_r + sc.noise_power
        row1 = row0 + sc.target_power * phi_t / n_r
        for bits in ("ideal", 1, 3):
            q = M.quantization_model(bits)
            a2L = q.alpha ** 2 * L
            cov = M.hypothesis_covariances(sc, T, q, 0.1)
            steered = a2L * (A_c * (sc.clutter_powers * phi_c)) @ A_c.conj().T
            r0 = steered + (a2L * sc.noise_power + q.alpha * q.beta * L * row0) * np.eye(n_r)
            r1 = (steered + a2L * sc.target_power * phi_t * np.outer(a_t, a_t.conj())
                  + (a2L * sc.noise_power + q.alpha * q.beta * L * row1) * np.eye(n_r))
            scale = np.abs(r1).max()
            np.testing.assert_allclose(cov.r0, r0, rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(cov.r1, r1, rtol=0, atol=1e-12 * scale)

    def test_noise_only_closed_form(self):
        sc = M.Scenario(n_tx=8, n_rx=6, n_rf=2, code_len=4, target_mean_angle=0.0,
                        target_uncertainty=0.0, target_power=0.0,
                        clutter_angles=np.zeros(0), clutter_powers=np.zeros(0),
                        noise_power=2.5)
        q = M.quantization_model(1)
        T = M.random_unit_modulus(8, 2, np.random.default_rng(2))
        cov = M.hypothesis_covariances(sc, T, q, 0.0)
        expected = sc.code_len * (q.alpha ** 2 + q.alpha * q.beta) * sc.noise_power * np.eye(6)
        np.testing.assert_allclose(cov.r0, expected, rtol=1e-12)
        np.testing.assert_allclose(cov.r1, expected, rtol=1e-12)

    def test_hermitian_psd_and_ordering(self, tiny_scenario):
        rng = np.random.default_rng(7)
        T = M.random_unit_modulus(8, 2, rng)
        cov = M.hypothesis_covariances(tiny_scenario, T, M.quantization_model(1), 0.1)
        for r in (cov.r0, cov.r1):
            assert np.allclose(r, r.conj().T, atol=1e-12)
            assert _psd_check(r)
        assert _psd_check(cov.r1 - cov.r0)


class TestRelativeEntropy:
    def test_identical_covariances(self):
        r = np.diag([2.0, 3.0, 4.0]).astype(complex)
        assert M.relative_entropy(M.HypothesisCovariances(r, r)) == pytest.approx(0.0, abs=1e-12)

    def test_two_by_two_diagonal(self):
        cov = M.HypothesisCovariances(np.eye(2, dtype=complex), 2.0 * np.eye(2, dtype=complex))
        expected = 2.0 * math.log(2.0) - 1.0
        assert M.relative_entropy(cov) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = 5
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            r0 = x @ x.conj().T + np.eye(n)
            r1 = y @ y.conj().T + np.eye(n)
            assert M.relative_entropy(M.HypothesisCovariances(r0, r1)) >= -1e-9

    def test_unitary_conjugation_invariance(self):
        rng = np.random.default_rng(13)
        n = 6
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        r0 = x @ x.conj().T + np.eye(n)
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        r1 = y @ y.conj().T + np.eye(n)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        d0 = M.relative_entropy(M.HypothesisCovariances(r0, r1))
        d1 = M.relative_entropy(M.HypothesisCovariances(u @ r0 @ u.conj().T,
                                                        u @ r1 @ u.conj().T))
        assert d0 == pytest.approx(d1, rel=1e-9)

    def test_singular_covariance_refused(self):
        r0 = np.diag([1.0, 1e-15]).astype(complex)
        with pytest.raises(M.IllConditionedModelError):
            M.relative_entropy(M.HypothesisCovariances(r0, np.eye(2, dtype=complex)))


class TestAveragedRelativeEntropy:
    def test_single_point_grid_reduces_to_plain(self, tiny_scenario):
        sc = M.Scenario(**{**_scenario_kwargs(tiny_scenario), "target_uncertainty": 0.0})
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(0))
        q = M.quantization_model(3)
        plain = M.relative_entropy(M.hypothesis_covariances(sc, T, q, sc.target_mean_angle))
        assert M.averaged_relative_entropy(sc, T, q) == pytest.approx(plain, rel=1e-12)

    def test_matches_loop_oracle(self, tiny_scenario):
        T = M.random_unit_modulus(8, 2, np.random.default_rng(4))
        q = M.quantization_model(2)
        grid = tiny_scenario.target_grid()
        assert grid.size == 3
        oracle = np.mean([M.relative_entropy(M.hypothesis_covariances(tiny_scenario, T, q, th))
                          for th in grid])
        assert M.averaged_relative_entropy(tiny_scenario, T, q) == pytest.approx(oracle, rel=1e-12)

    def test_zero_target_power_gives_zero(self, tiny_scenario):
        sc = M.Scenario(**{**_scenario_kwargs(tiny_scenario), "target_power": 0.0})
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(0))
        assert M.averaged_relative_entropy(sc, T, M.quantization_model(1)) == pytest.approx(0.0, abs=1e-10)

    def test_more_bits_never_hurt(self, flagship_scenario):
        T = M.random_unit_modulus(128, 8, np.random.default_rng(21))
        vals = [M.averaged_relative_entropy(flagship_scenario, T, M.quantization_model(b))
                for b in (1, 2, 3, "ideal")]
        assert vals == sorted(vals)


def _balanced_signs(n_tx: int, n_rf: int, rng: np.random.Generator) -> np.ndarray:
    """One-bit design whose columns sum to zero, so its broadside power is exactly 0.

    Every entry is +-1/sqrt(n_tx); for n_tx = 4 or 16 that is a power of two,
    and the broadside steering vector is the constant 1/sqrt(n_tx).
    """
    cols = [rng.permutation(np.repeat([1.0, -1.0], n_tx // 2)) for _ in range(n_rf)]
    return np.stack(cols, axis=1) / math.sqrt(n_tx)


def lrt_matrix(G, w, gamma):
    """The dense N_r x N_r matrix gamma*I + G^H diag(w) G of an ``lrt_form``."""
    return gamma * np.eye(G.shape[1]) + (G.conj().T * w) @ G


def _small_case(n_rx, n_tx, n_rf, code_len, mean_deg, width_deg, target_power, clutter_deg,
                clutter_db, noise_power, bits, nulled, seed):
    sc = M.Scenario(n_tx=n_tx, n_rx=n_rx, n_rf=n_rf, code_len=code_len,
                    target_mean_angle=math.radians(mean_deg),
                    target_uncertainty=math.radians(width_deg),
                    target_grid_spacing=math.radians(1.0), target_power=target_power,
                    clutter_angles=np.radians(clutter_deg),
                    clutter_powers=10.0 ** (np.asarray(clutter_db, dtype=float) / 10.0),
                    noise_power=noise_power)
    rng = np.random.default_rng(seed)
    T = (_balanced_signs(n_tx, n_rf, rng) if nulled
         else M.random_unit_modulus(n_tx, n_rf, rng))
    return sc, T, bits


@st.composite
def small_cases(draw):
    """Random small scenarios, from well conditioned to past MAX_CONDITION.

    A "nulled" case puts a clutter direction at broadside under a design with
    exactly zero power there (g_k = 0); target power is 0 in about half the
    cases; K + 1 >= N_r whenever there are at least N_r - 1 clutter angles.
    """
    n_rf = draw(st.integers(1, 3))
    nulled = draw(st.booleans())
    clutter = ([0] if nulled else []) + draw(st.lists(st.integers(-85, -1), unique=True,
                                                      max_size=4))
    return _small_case(
        n_rx=draw(st.integers(1, 6)), n_tx=draw(st.sampled_from([4, 16])), n_rf=n_rf,
        code_len=n_rf + draw(st.integers(0, 3)), mean_deg=draw(st.integers(20, 40)),
        width_deg=draw(st.sampled_from([0, 2, 4])),
        target_power=draw(st.sampled_from([0.0, 10.0 ** draw(st.floats(-2, 2))])),
        clutter_deg=clutter,
        clutter_db=draw(st.lists(st.floats(0, 40), min_size=len(clutter),
                                 max_size=len(clutter))),
        noise_power=10.0 ** draw(st.floats(-16, 1)),
        bits=draw(st.sampled_from([1, 2, 3, 5, "ideal"]) | st.just("ideal")), nulled=nulled,
        seed=draw(st.integers(0, 2 ** 32 - 1)))


class TestLowRankCovariances:
    """The low-rank evaluator against the dense covariances and eigensolves."""

    @staticmethod
    def dense_condition(r: np.ndarray) -> float:
        w = np.linalg.eigvalsh(r)
        return w[-1] / w[0] if w[0] > 0 else math.inf

    @settings(max_examples=60, deadline=None)
    @given(small_cases())
    # N_r = 2 with 3 clutter angles, a nulled one among them, and no target
    @example(_small_case(2, 4, 2, 3, 30, 2, 0.0, [0, -50, -20], [20, 30, 10], 1.0, 1,
                         True, 1))
    # ideal ADCs over a tiny noise floor: past MAX_CONDITION
    @example(_small_case(4, 16, 2, 2, 25, 0, 1.0, [-30, -60], [30, 30], 1e-14, "ideal",
                         False, 2))
    # a target 1e-9 rad from a clutter angle, nearly inside the clutter span
    @example(_small_case(6, 16, 2, 3, 30, 0, 1.0, [30 + math.degrees(1e-9), -50], [20, 30],
                         1.0, 1, False, 5))
    # no clutter (K = 0), well conditioned; then R1 alone past MAX_CONDITION
    @example(_small_case(4, 16, 2, 3, 25, 2, 1.0, [], [], 0.1, 3, False, 4))
    @example(_small_case(4, 16, 2, 2, 25, 0, 10.0, [], [], 1e-13, "ideal", False, 6))
    def test_matches_dense_oracle(self, case):
        sc, T, bits = case
        q = M.quantization_model(bits)
        grid = sc.target_grid()
        covs = [M.hypothesis_covariances(sc, T, q, th) for th in grid]
        conds = [self.dense_condition(r) for c in covs for r in (c.r0, c.r1)]
        assume(all(abs(k / M.MAX_CONDITION - 1.0) > 1e-6 for k in conds))
        if 0.0 in sc.clutter_angles:
            assert M.beampattern_powers(T, [0.0])[0] == 0.0
        if max(conds) > M.MAX_CONDITION:
            with pytest.raises(M.IllConditionedModelError):
                M.relative_entropy(covs[np.argmax(conds) // 2])
            with pytest.raises(M.IllConditionedModelError):
                M.relative_entropies(sc, T, q, grid)
            return
        got = M.relative_entropies(sc, T, q, grid)
        dense = np.array([M.relative_entropy(c) for c in covs])
        # 1e-9 relative, plus what the dense eigensolves lose: N_r eps kappa
        slack = 4.0 * sc.n_rx * np.finfo(float).eps * max(conds)
        np.testing.assert_array_less(np.abs(got - dense), 1e-9 * np.abs(dense) + 1e-11 + slack)
        assert np.all(got >= 0)

    @pytest.mark.parametrize("bits", [1, 3, "ideal"])
    @pytest.mark.parametrize("snr_db", [-5.0, 0.0])
    def test_lrt_matrix_matches_inverses(self, desk_scenario, bits, snr_db):
        sc = M.Scenario(**{**_scenario_kwargs(desk_scenario),
                           "target_power": desk_scenario.noise_power * 10.0 ** (snr_db / 10)})
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(8))
        q = M.quantization_model(bits)
        L, theta = sc.code_len, sc.target_mean_angle
        cov = M.hypothesis_covariances(sc, T, q, theta)
        dense = np.linalg.inv(cov.r0 / L) - np.linalg.inv(cov.r1 / L)
        f = M.low_rank_covariances(sc, T, q, theta)
        G, w, gamma = f.lrt_form(0, L)
        assert G.shape == (sc.n_clutter + 1, sc.n_rx) and w.shape == (sc.n_clutter + 1,)
        assert w.dtype == np.float64 and gamma == L * (1.0 / f.c0 - 1.0 / f.c1[0])
        np.testing.assert_allclose(lrt_matrix(G, w, gamma), dense, rtol=1e-10,
                                   atol=1e-10 * np.abs(dense).max())

    @settings(max_examples=60, deadline=None)
    @given(small_cases(), st.integers(1, 8))
    # one antenna under four clutter directions, noise far below the clutter:
    # the basis spans the array, where a Woodbury form (I - U P U^H)/c cancels
    # from order 1/c (it gave 2.9e8 for a true 22.44 here)
    @example(_small_case(1, 4, 1, 1, 30, 0, 1.0, [-10, -30, -50, -70], [30, 30, 30, 30],
                         1e-13, "ideal", False, 3), 4)
    # a target 1e-9 rad from a clutter angle, and no clutter at all (K = 0)
    @example(_small_case(6, 16, 2, 3, 30, 0, 1.0, [30 + math.degrees(1e-9), -50], [20, 30],
                         1.0, 1, False, 5), 3)
    @example(_small_case(4, 16, 2, 3, 25, 2, 1.0, [], [], 0.1, 3, False, 4), 2)
    def test_lrt_form_matches_dense_inverses(self, case, L):
        # L (R0^-1 - R1^-1) from dense inverses, for any small scenario the
        # low-rank model accepts, at every target angle of the grid
        sc, T, bits = case
        q = M.quantization_model(bits)
        grid = sc.target_grid()
        try:
            f = M.low_rank_covariances(sc, T, q, grid)
        except M.IllConditionedModelError:
            return
        for i, theta in enumerate(grid):
            cov = M.hypothesis_covariances(sc, T, q, theta)
            inv0, inv1 = np.linalg.inv(cov.r0), np.linalg.inv(cov.r1)
            dense = L * (inv0 - inv1)
            kappa = max(self.dense_condition(cov.r0), self.dense_condition(cov.r1))
            # the dense inverses lose about N_r eps kappa of their own scale
            slack = 64 * sc.n_rx * np.finfo(float).eps * L * kappa * max(np.abs(inv0).max(),
                                                                         np.abs(inv1).max())
            G, w, gamma = f.lrt_form(i, L)
            got = lrt_matrix(G, w, gamma)
            np.testing.assert_array_less(np.abs(got - dense), 1e-9 * np.abs(dense).max() + slack)
            # G = (B V)^H has orthonormal rows, also where a_i nearly lies in
            # the clutter span and q_i is the normalized remainder
            np.testing.assert_allclose(G @ G.conj().T, np.eye(w.size), atol=1e-12)

    def test_mean_angle_entropy_matches_dense(self, flagship_scenario):
        sc = flagship_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(9))
        q = M.quantization_model(1)
        dense = M.relative_entropy(M.hypothesis_covariances(sc, T, q, sc.target_mean_angle))
        got = M.relative_entropies(sc, T, q, sc.target_mean_angle)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(dense, rel=1e-8)

    # (case, L, bound).  The bounds are set from the measured errors of the
    # form: 2.5e-8 at the near-clutter case, whose kappa is 8.5e9 (one
    # Gram-Schmidt pass gives 1.4e-7 there), and 1.9e-14 and 9.8e-15 at the
    # ordinary cases, with m < N_r (gamma > 0) and m = N_r (gamma = 0).
    @pytest.mark.parametrize("case, L, bound", [
        pytest.param(_small_case(6, 16, 2, 3, 30, 0, 1.0, [30 + math.degrees(1e-9), -50],
                                 [20, 30], 1e-8, "ideal", False, 5), 3, 5e-8,
                     id="near-clutter-ideal"),
        pytest.param(_small_case(12, 8, 2, 4, 6, 0, 2.0, [-40, 35, -65], [7, 9, 25], 1.0, 1,
                                 False, 1), 4, 1e-13, id="n12-k3"),
        pytest.param(_small_case(6, 8, 2, 4, 6, 0, 2.0, [-40, 35, -65, 60, -10],
                                 [7, 9, 25, 30, 17], 1.0, 3, False, 0), 4, 1e-13, id="n6-k5"),
    ])
    def test_lrt_form_matches_high_precision(self, case, L, bound):
        mp = pytest.importorskip("mpmath")
        sc, T, bits = case
        q, theta = M.quantization_model(bits), sc.target_mean_angle
        exact = _mp_lrt_matrix(mp, sc, T, q, theta, L)
        got = lrt_matrix(*M.low_rank_covariances(sc, T, q, theta).lrt_form(0, L))
        assert np.abs(got - exact).max() <= bound * np.abs(exact).max()

    @pytest.mark.parametrize("case, fade_db", [
        pytest.param(case, fade, id=case + (f"-fade{fade:.0f}" if fade else ""))
        for fade in (0.0, 30.0, 60.0) for case in ("n6-k6", "n12-k4", "desk32")])
    def test_entropy_matches_high_precision(self, case, fade_db, desk_scenario):
        """D within 1e-13 of a 40-digit reference, at D of order 1e-3 as in the
        built-in scenarios and with the target faded by 30 and 60 dB, where D
        shrinks as the target power squared.  With five clutter directions the
        clutter and target span the six antennas (m = N_r); with three they
        leave eight directions outside."""
        mp = pytest.importorskip("mpmath")
        if case == "desk32":
            sc, seed = desk_scenario, 1
        else:
            n_rx, n_clutter, seed = {"n6-k6": (6, 5, 0), "n12-k4": (12, 3, 1)}[case]
            sc = M.Scenario(n_tx=8, n_rx=n_rx, n_rf=2, code_len=4, target_mean_angle=0.1,
                            target_uncertainty=0.0, target_power=2.0,
                            clutter_angles=np.radians([-40, 35, -65, 60, -10][:n_clutter]),
                            clutter_powers=np.array([5, 8, 300, 1000, 50][:n_clutter]),
                            noise_power=1.0)
        sc = replace(sc, target_power=sc.target_power / M.db_to_linear(fade_db))
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(seed))
        q = M.quantization_model(1)
        exact = _mp_relative_entropy(mp, sc, T, q, sc.target_mean_angle)
        got = M.relative_entropies(sc, T, q, sc.target_mean_angle)[0]
        assert abs(got - exact) <= 1e-13 * exact


def _mp_hypotheses(mp, sc: M.Scenario, q: M.QuantizationModel, clutter, target):
    """R0 and R1 at the working precision from (P phi, steering) pairs of the
    clutter directions and of the target."""
    n_r, L = sc.n_rx, sc.code_len
    alpha, beta = mp.mpf(q.alpha), mp.mpf(q.beta)
    a2L, noise = alpha ** 2 * L, mp.mpf(sc.noise_power)
    row0 = mp.fsum(g for g, _ in clutter) / n_r + noise

    def covariance(spikes, row):
        r = mp.matrix(n_r, n_r)
        for i in range(n_r):
            for j in range(i + 1):
                r[i, j] = a2L * mp.fsum(g * a[i] * mp.conj(a[j]) for g, a in spikes)
                r[j, i] = mp.conj(r[i, j])
            r[i, i] = mp.re(r[i, i]) + a2L * noise + alpha * beta * L * row
        return r

    return covariance(clutter, row0), covariance(clutter + [target], row0 + target[0] / n_r)


def _mp_relative_entropy(mp, sc: M.Scenario, T: np.ndarray, q: M.QuantizationModel,
                         theta: float) -> float:
    """D from R0 and R1 built in mpmath at 40 digits out of the same float inputs.

    Tr(R1^-1 R0) is ||L1^-1 L0||_F^2 for the Cholesky factors R = L L^H, and
    each log-determinant is twice the sum of log diag(L).
    """
    with mp.workdps(40):
        n_r = sc.n_rx

        def steer(th, n):
            s = mp.sin(mp.mpf(float(th)))
            return [mp.expj(-mp.pi * m * s) / mp.sqrt(n) for m in range(n)]

        cols = [[mp.mpc(complex(v)) for v in T[:, j]] for j in range(T.shape[1])]

        def power(th):                          # a^T T T^H a*
            a = steer(th, T.shape[0])
            return mp.fsum(abs(mp.fdot(a, col)) ** 2 for col in cols)

        clutter = [(mp.mpf(float(p)) * power(th), steer(th, n_r))
                   for p, th in zip(sc.clutter_powers, sc.clutter_angles)]
        target = (mp.mpf(sc.target_power) * power(theta), steer(theta, n_r))
        r0, r1 = _mp_hypotheses(mp, sc, q, clutter, target)
        l0, l1 = mp.cholesky(r0), mp.cholesky(r1)
        trace = 0
        for j in range(n_r):                    # column j of L1^-1 L0, forward substitution
            x = [0] * n_r
            for i in range(j, n_r):
                x[i] = (l0[i, j] - mp.fsum(l1[i, m] * x[m] for m in range(j, i))) / l1[i, i]
            trace += mp.fsum(abs(v) ** 2 for v in x)
        logdets = 2 * mp.fsum(mp.log(mp.re(l1[i, i])) - mp.log(mp.re(l0[i, i]))
                              for i in range(n_r))
        return float(logdets + trace - n_r)


def _mp_lrt_matrix(mp, sc: M.Scenario, T: np.ndarray, q: M.QuantizationModel,
                   theta: float, L: int) -> np.ndarray:
    """L (R0^-1 - R1^-1) by mpmath inverses at 40 digits.

    R0 and R1 are built from the model's own float steering vectors and
    beampattern powers, so the reference checks the form and not its inputs:
    near a clutter angle the matrix is ill-conditioned, and the rounding of
    the float steering alone moves it by about 1e-7 relative at kappa 8.5e9.
    """
    with mp.workdps(40):
        angles = np.append(sc.clutter_angles, theta)
        A = M.steering_matrix(angles, sc.n_rx)
        powers = np.append(sc.clutter_powers, sc.target_power)
        spikes = [(mp.mpf(float(p)) * mp.mpf(float(phi)), [mp.mpc(complex(v)) for v in a])
                  for p, phi, a in zip(powers, M.beampattern_powers(T, angles), A.T)]
        r0, r1 = _mp_hypotheses(mp, sc, q, spikes[:-1], spikes[-1])
        return np.array((L * (mp.inverse(r0) - mp.inverse(r1))).tolist(), dtype=complex)


class TestLargeArrayOrthogonality:
    def test_crosscorr_decays_with_array_size(self):
        rng = np.random.default_rng(17)
        means = []
        for n_r in (16, 64, 256):
            acc = 0.0
            for _ in range(400):
                th = rng.uniform(-np.pi / 2, np.pi / 2, 2)
                a, b = M.steering_matrix(th, n_r).T
                acc += abs(np.vdot(a, b)) ** 2
            means.append(acc / 400)
        assert means[0] > means[1] > means[2]

    def test_expected_angle_average_identity(self):
        # E[exp(1j pi n sin(theta))] over uniform theta equals J0(pi n), whose
        # decay along the integers backs the large-array orthogonality argument
        rng = np.random.default_rng(0)
        theta = rng.uniform(-np.pi / 2, np.pi / 2, 4_000_000)
        for n in (1, 2):
            mc = np.mean(np.exp(1j * np.pi * n * np.sin(theta)))
            assert mc.real == pytest.approx(scipy_j0(math.pi * n), abs=2e-3)
            assert abs(mc.imag) < 2e-3


class TestDopplerInvariance:
    def test_sample_covariance_unchanged_by_ramps(self, tiny_scenario):
        from cebeam import simulate as SIM
        sc = tiny_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(3))
        trials = 60_000

        def flat_batch(rng):
            # the received_batch draws with every Doppler frequency set to zero
            Y = np.empty((trials, sc.n_rx, sc.code_len), dtype=complex)
            _, noise_scale, A_r, B, amp_scale = SIM._sources(sc, T, sc.target_mean_angle)
            amps, freq = SIM._draw(Y, noise_scale, amp_scale, rng)
            SIM._mix(Y, amps, np.zeros_like(freq), A_r, B)
            return Y

        def sample_cov(Y):
            return np.einsum("trl,tsl->rs", Y, Y.conj()) / (trials * sc.code_len)

        c_ramps = sample_cov(SIM.received_batch(sc, T, sc.target_mean_angle, trials,
                                                np.random.default_rng(100)))
        c_flat = sample_cov(flat_batch(np.random.default_rng(101)))
        rel = np.linalg.norm(c_ramps - c_flat) / np.linalg.norm(c_flat)
        assert rel < 0.02


def _scenario_kwargs(sc: M.Scenario) -> dict:
    return dict(n_tx=sc.n_tx, n_rx=sc.n_rx, n_rf=sc.n_rf, code_len=sc.code_len,
                target_mean_angle=sc.target_mean_angle,
                target_uncertainty=sc.target_uncertainty,
                target_grid_spacing=sc.target_grid_spacing,
                target_power=sc.target_power,
                clutter_angles=sc.clutter_angles.copy(),
                clutter_powers=sc.clutter_powers.copy(),
                noise_power=sc.noise_power)


class TestScenario:
    def test_rf_chains_cannot_exceed_code_length(self, tiny_scenario):
        with pytest.raises(M.ModelError):
            M.Scenario(**{**_scenario_kwargs(tiny_scenario), "n_rf": 5, "code_len": 4})

    def test_rf_chains_cannot_exceed_transmit_antennas(self, tiny_scenario):
        with pytest.raises(M.ModelError):
            M.Scenario(**{**_scenario_kwargs(tiny_scenario), "n_rf": 9, "code_len": 16})

    @pytest.mark.parametrize("override", [
        {"clutter_angles": [math.nan, 0.6]},
        {"clutter_powers": [math.nan, 8.0]},
        {"target_power": math.inf},
    ])
    def test_non_finite_values_rejected(self, tiny_scenario, override):
        with pytest.raises(M.ModelError):
            M.Scenario(**{**_scenario_kwargs(tiny_scenario), **override})

    def test_angles_outside_half_circle_rejected(self, tiny_scenario):
        with pytest.raises(M.ModelError):
            M.Scenario(**{**_scenario_kwargs(tiny_scenario), "clutter_angles": [2.0]})

    @pytest.mark.parametrize("grid", [
        # 2 degrees over a subnormal spacing: the point count overflows
        pytest.param({"target_uncertainty": math.radians(2.0),
                      "target_grid_spacing": math.radians(1e-320)}, id="subnormal-spacing"),
        # 2e6 points, past the cap on the count
        pytest.param({"target_uncertainty": math.radians(2.0),
                      "target_grid_spacing": math.radians(1e-6)}, id="2e6-points"),
        # the mean and clutter lie inside, but the grid reaches 100 degrees
        pytest.param({"target_mean_angle": math.radians(80.0),
                      "target_uncertainty": math.radians(40.0),
                      "target_grid_spacing": math.radians(10.0)}, id="past-endfire"),
        pytest.param({"target_mean_angle": -1.5, "target_uncertainty": 0.2},
                     id="past-minus-endfire"),
    ])
    def test_target_grid_outside_half_circle_or_uncountable_rejected(self, tiny_scenario, grid):
        with pytest.raises(M.ModelError, match="target grid"):
            M.Scenario(**{**_scenario_kwargs(tiny_scenario), **grid})

    def test_target_grid_may_hold_the_capped_point_count(self, tiny_scenario):
        kw = {**_scenario_kwargs(tiny_scenario), "target_uncertainty": math.radians(2.0)}
        cap = M.MAX_TARGET_GRID_POINTS
        sc = M.Scenario(**{**kw, "target_grid_spacing": math.radians(2.0) / (cap - 1)})
        assert sc.target_grid().size == cap
        with pytest.raises(M.ModelError, match="target grid"):
            M.Scenario(**{**kw, "target_grid_spacing": math.radians(2.0) / cap})

    def test_target_grid_may_end_at_endfire(self, tiny_scenario):
        # the ends hold the same 1e-12 slack as the clutter angles
        sc = M.Scenario(**{**_scenario_kwargs(tiny_scenario),
                           "target_mean_angle": math.pi / 2 - 0.01, "target_uncertainty": 0.02,
                           "target_grid_spacing": 0.01})
        assert sc.target_grid()[-1] == pytest.approx(math.pi / 2, abs=1e-15)

    def test_duplicate_profile_angles_rejected(self, tiny_scenario):
        kw = _scenario_kwargs(tiny_scenario)
        kw["clutter_angles"] = [kw["target_mean_angle"]]
        kw["clutter_powers"] = [1.0]
        kw["target_uncertainty"] = 0.0
        with pytest.raises(M.ModelError):
            M.Scenario(**kw)

    def test_grid_spans_uncertainty(self, flagship_scenario):
        grid = flagship_scenario.target_grid()
        assert grid.size == 5
        assert grid[0] == pytest.approx(-math.radians(1.0))
        assert grid[-1] == pytest.approx(math.radians(1.0))

    def test_json_round_trip(self, desk_scenario, tmp_path):
        import json
        p = tmp_path / "sc.json"
        p.write_text(json.dumps(desk_scenario.to_dict()))
        back = M.Scenario.from_json(p)
        assert back.content_hash() == desk_scenario.content_hash()
        assert back.n_tx == desk_scenario.n_tx
        np.testing.assert_allclose(back.clutter_powers, desk_scenario.clutter_powers)

    def test_scalar_clutter_power_broadcast(self):
        sc = M.Scenario(n_tx=8, n_rx=8, n_rf=2, code_len=4, target_mean_angle=0.0,
                        target_uncertainty=0.0, target_power=1.0,
                        clutter_angles=[0.3, -0.4, 0.9], clutter_powers=[7.0],
                        noise_power=1.0)
        np.testing.assert_array_equal(sc.clutter_powers, [7.0, 7.0, 7.0])
