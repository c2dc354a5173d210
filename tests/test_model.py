import math

import numpy as np
import pytest
from scipy.special import j0 as scipy_j0

from cebeam import model as M


class TestSteeringVector:
    def test_broadside_is_uniform(self):
        np.testing.assert_allclose(M.steering_vector(0.0, 4), np.full(4, 0.5), atol=1e-15)

    def test_endfire_alternates(self):
        a = M.steering_vector(math.pi / 2, 2)
        np.testing.assert_allclose(a, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)

    def test_unit_norm(self):
        a = M.steering_vector(0.3, 64)
        assert abs(np.vdot(a, a).real - 1.0) < 1e-12

    def test_matrix_matches_vectors(self):
        thetas = np.array([-0.7, 0.1, 1.2])
        A = M.steering_matrix(thetas, 16)
        for i, th in enumerate(thetas):
            np.testing.assert_allclose(A[:, i], M.steering_vector(th, 16), atol=1e-14)

    def test_empty_array_rejected(self):
        with pytest.raises(M.ModelError):
            M.steering_vector(0.0, 0)


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
        for theta in np.linspace(-1.5, 1.5, 7):
            assert M.beampattern_power(T, theta) == pytest.approx(1.0, abs=1e-12)

    def test_column_sum_oracle(self):
        rng = np.random.default_rng(3)
        T = M.random_unit_modulus(16, 3, rng)
        theta = 0.41
        a = M.steering_vector(theta, 16)
        by_columns = sum(abs(a @ T[:, j]) ** 2 for j in range(3))
        assert M.beampattern_power(T, theta) == pytest.approx(by_columns, rel=1e-12)

    def test_coherent_columns_blow_up(self):
        n_tx, n_rf = 16, 4
        T = np.full((n_tx, n_rf), 1.0 / np.sqrt(n_tx))
        assert M.beampattern_power(T, 0.0) == pytest.approx(n_rf, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        T = M.random_unit_modulus(12, 2, rng)
        thetas = np.linspace(-1.0, 1.0, 9)
        vec = M.beampattern_powers(T, thetas)
        one_by_one = [M.beampattern_power(T, th) for th in thetas]
        np.testing.assert_allclose(vec, one_by_one, rtol=1e-12)


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
        # without quantization the covariances are the unquantized model: L times
        # clutter plus noise, and the target outer product under H1
        sc = tiny_scenario
        T = M.random_unit_modulus(8, 2, np.random.default_rng(1))
        cov = M.hypothesis_covariances(sc, T, M.quantization_model("ideal"), 0.1)
        A_c = M.steering_matrix(sc.clutter_angles, sc.n_rx)
        phi_c = [M.beampattern_power(T, th) for th in sc.clutter_angles]
        r0 = sc.code_len * ((A_c * (sc.clutter_powers * phi_c)) @ A_c.conj().T
                            + sc.noise_power * np.eye(sc.n_rx))
        a_t = M.steering_vector(0.1, sc.n_rx)
        r1 = r0 + sc.code_len * sc.target_power * M.beampattern_power(T, 0.1) * np.outer(
            a_t, a_t.conj())
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


class TestLargeArrayOrthogonality:
    def test_crosscorr_decays_with_array_size(self):
        rng = np.random.default_rng(17)
        means = []
        for n_r in (16, 64, 256):
            acc = 0.0
            for _ in range(400):
                th = rng.uniform(-np.pi / 2, np.pi / 2, 2)
                a, b = M.steering_vector(th[0], n_r), M.steering_vector(th[1], n_r)
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
        from cebeam.simulate import received_batch
        sc = tiny_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(3))
        trials = 60_000

        def sample_cov(doppler, seed):
            rng = np.random.default_rng(seed)
            Y = received_batch(sc, T, sc.target_mean_angle, trials, rng, doppler=doppler)
            return np.einsum("trl,tsl->rs", Y, Y.conj()) / (trials * sc.code_len)

        c_ramps = sample_cov(True, 100)
        c_flat = sample_cov(False, 101)
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
