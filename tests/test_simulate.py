import math

import numpy as np
import pytest

from cebeam import model as M
from cebeam import simulate as SIM


class TestLfmWaveforms:
    def test_gram_is_identity(self):
        S = SIM.lfm_waveforms(8, 16)
        np.testing.assert_allclose(S @ S.conj().T / 16, np.eye(8), atol=1e-10)

    def test_square_set_is_unitary(self):
        L = 8
        S = SIM.lfm_waveforms(L, L)
        U = S / np.sqrt(L)
        np.testing.assert_allclose(U @ U.conj().T, np.eye(L), atol=1e-10)
        np.testing.assert_allclose(U.conj().T @ U, np.eye(L), atol=1e-10)

    def test_unit_modulus_entries(self):
        S = SIM.lfm_waveforms(4, 32)
        np.testing.assert_allclose(np.abs(S), 1.0, atol=1e-12)

    def test_too_many_waveforms_rejected(self):
        with pytest.raises(M.ModelError):
            SIM.lfm_waveforms(9, 8)


def _reference_batch(scenario, T, theta_t, trials, rng):
    """Received batch by the direct formula: complex draws and an einsum mix."""
    sources = list(scenario.clutter_angles)
    powers = list(scenario.clutter_powers)
    if theta_t is not None:
        sources.insert(0, theta_t)
        powers.insert(0, scenario.target_power)
    L, n_r = scenario.code_len, scenario.n_rx
    shape = (trials, n_r, L)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    noise *= math.sqrt(scenario.noise_power / 2.0)
    A_r = M.steering_matrix(np.asarray(sources), n_r)
    A_t = M.steering_matrix(np.asarray(sources), scenario.n_tx)
    B = A_t.T @ (T @ SIM.lfm_waveforms(scenario.n_rf, L))
    amps = rng.standard_normal((trials, len(sources))) + 1j * rng.standard_normal((trials, len(sources)))
    amps *= np.sqrt(np.asarray(powers) / 2.0)
    freq = rng.uniform(0.0, 1.0, size=(trials, len(sources)))
    ramps = np.exp(2j * np.pi * freq[:, :, None] * np.arange(L)[None, None, :])
    return np.einsum("rk,tkl->trl", A_r, amps[:, :, None] * ramps * B[None]) + noise


class TestReceivedBatch:
    @pytest.mark.parametrize("with_target", [False, True])
    def test_same_draws_as_reference_formula(self, tiny_scenario, with_target):
        # the realization for a seed is part of the reproducibility contract
        sc = tiny_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(13))
        theta = sc.target_mean_angle if with_target else None
        Y = SIM.received_batch(sc, T, theta, 3000, np.random.default_rng(14))
        ref = _reference_batch(sc, T, theta, 3000, np.random.default_rng(14))
        np.testing.assert_allclose(Y, ref, rtol=1e-12, atol=0.0)

    def test_sample_covariance_matches_model(self, tiny_scenario):
        # unquantized H0 data must reproduce the ideal-ADC model covariance
        sc = tiny_scenario
        rng = np.random.default_rng(0)
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, rng)
        trials = 120_000
        Y = SIM.received_batch(sc, T, None, trials, np.random.default_rng(1))
        sample = np.einsum("trl,tsl->rs", Y, Y.conj()) / (trials * sc.code_len)
        q = M.quantization_model("ideal")
        model = M.hypothesis_covariances(sc, T, q, sc.target_mean_angle).r0 / sc.code_len
        rel = np.linalg.norm(sample - model) / np.linalg.norm(model)
        assert rel < 0.02

    def test_row_power_prediction(self, tiny_scenario):
        sc = tiny_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(2))
        Y = SIM.received_batch(sc, T, sc.target_mean_angle, 60_000, np.random.default_rng(3))
        measured = np.mean(np.abs(Y) ** 2)
        assert measured == pytest.approx(SIM.model_row_power(sc, T, sc.target_mean_angle),
                                         rel=0.03)


class TestDetection:
    def test_vanishing_target_detected_at_false_alarm_rate(self, tiny_scenario):
        # at -60 dB the hypotheses are indistinguishable and pd collapses to pfa
        sc = tiny_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(4))
        pt = SIM.simulate_detection(T, sc, 2, snr_db=-60.0, pfa=1e-2,
                                    trials=20_000, seed=5)
        sigma = math.sqrt(1e-2 * (1 - 1e-2) / 20_000)
        assert abs(pt.pd - 1e-2) < 3 * sigma

    def test_calibrated_false_alarm_rate(self, tiny_scenario):
        sc = tiny_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(6))
        pt = SIM.simulate_detection(T, sc, 1, snr_db=0.0, pfa=1e-2,
                                    trials=20_000, seed=7)
        sigma = math.sqrt(1e-2 * (1 - 1e-2) / 20_000)
        assert abs(pt.empirical_pfa - 1e-2) < 3 * sigma

    def test_insufficient_trials_rejected(self, tiny_scenario):
        T = M.random_unit_modulus(8, 2, np.random.default_rng(8))
        with pytest.raises(M.ModelError):
            SIM.simulate_detection(T, tiny_scenario, 1, 0.0, pfa=1e-4, trials=1000, seed=0)

    def test_curve_wraps_points(self, tiny_scenario):
        sc = tiny_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(9))
        curve = SIM.detection_curve(T, sc, "ideal", (-5.0, 5.0), 1e-2, 5000, seed=11)
        assert curve.pd.shape == (2,)
        assert np.all(curve.pd >= 0) and np.all(curve.pd <= 1)

    def test_curve_validation(self):
        with pytest.raises(M.ModelError):
            SIM.DetectionCurve(snr_db=np.array([0.0]), pd=np.array([0.5]),
                               ci_halfwidth=np.array([0.01]),
                               empirical_pfa=np.array([1e-3]),
                               pfa_target=1e-4, trials=1000, seed=0)


class TestSteeringExperiment:
    def test_decay_and_clutter_ordering(self):
        sizes = (32, 64, 128)
        few = SIM.steering_crosscorr_experiment(sizes, 1, trials=2000, seed=1)
        many = SIM.steering_crosscorr_experiment(sizes, 20, trials=2000, seed=1)
        assert np.all(np.diff(few) < 0) and np.all(np.diff(many) < 0)
        assert np.all(few < many)

    def test_gram_diagonal_is_unit(self):
        rng = np.random.default_rng(2)
        angles = rng.uniform(-np.pi / 2, np.pi / 2, 6)
        A = M.steering_matrix(angles, 64)
        gram = A.conj().T @ A
        np.testing.assert_allclose(np.diag(gram).real, 1.0, atol=1e-12)

    def test_trial_floor_enforced(self):
        with pytest.raises(M.ModelError):
            SIM.steering_crosscorr_experiment((32,), 5, trials=10, seed=0)


class TestQuantizedCovariance:
    def test_small_scale_model_agreement(self, tiny_scenario):
        sc = tiny_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(3))
        err = SIM.sample_h0_covariance_error(sc, T, 2, snapshots=40_000, seed=12)
        assert err < 0.08
