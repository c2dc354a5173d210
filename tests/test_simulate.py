import dataclasses
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cebeam import model as M
from cebeam import simulate as SIM
from cebeam.pipeline import load_scenario
from cebeam.quantizer import lloyd_max_codebook, quantize_received


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

    @pytest.mark.parametrize("with_target", [False, True])
    def test_long_code_same_draws_as_reference_formula(self, tiny_scenario, with_target):
        # the ramps' running products carry their rounding across 1024
        # snapshots; the direct formula rounds its phase 2*pi*f*l by as much,
        # so the gap is taken relative to the largest sample
        sc = dataclasses.replace(tiny_scenario, code_len=1024)
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(13))
        theta = sc.target_mean_angle if with_target else None
        Y = SIM.received_batch(sc, T, theta, 40, np.random.default_rng(14))
        ref = _reference_batch(sc, T, theta, 40, np.random.default_rng(14))
        np.testing.assert_allclose(Y, ref, rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))

    def test_sample_covariance_matches_model(self, tiny_scenario):
        # unquantized data of either hypothesis, Doppler ramps included, must
        # reproduce the ideal-ADC model covariance
        sc = tiny_scenario
        rng = np.random.default_rng(0)
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, rng)
        trials = 120_000
        q = M.quantization_model("ideal")
        cov = M.hypothesis_covariances(sc, T, q, sc.target_mean_angle)
        for theta, model, seed in ((None, cov.r0, 1), (sc.target_mean_angle, cov.r1, 2)):
            Y = SIM.received_batch(sc, T, theta, trials, np.random.default_rng(seed))
            sample = np.einsum("trl,tsl->rs", Y, Y.conj()) / (trials * sc.code_len)
            model = model / sc.code_len
            rel = np.linalg.norm(sample - model) / np.linalg.norm(model)
            assert rel < 0.02

    def test_row_power_prediction(self, tiny_scenario):
        sc = tiny_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(2))
        Y = SIM.received_batch(sc, T, sc.target_mean_angle, 60_000, np.random.default_rng(3))
        measured = np.mean(np.abs(Y) ** 2)
        model = M.low_rank_covariances(sc, T, M.quantization_model(1), sc.target_mean_angle)
        assert measured == pytest.approx(model.row1[0], rel=0.03)


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


def _per_block_statistics(scenario, T, quant, form, power, theta_t, seed, run, trials):
    """Statistics of one run rebuilt block by block from the documented streams.

    Block b of run r draws from SeedSequence(seed, spawn_key=(r, b)) through
    ``_draw`` and ``_mix``, is quantized by ``quantize_received`` and reduced
    with the dense gamma*I + G^H diag(w) G.
    """
    G, w, gamma = form
    dense = gamma * np.eye(scenario.n_rx) + (G.conj().T * w) @ G
    A_r, B, amp_scale = SIM._sources(scenario, T, theta_t)
    blk, shape = SIM._BLOCK_TRIALS, (scenario.n_rx, scenario.code_len)
    out = []
    for b, a in enumerate(range(0, trials, blk)):
        m = min(blk, trials - a)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(run, b))))
        Y = np.empty((m,) + shape, dtype=complex)
        amps, freq = SIM._draw(Y, math.sqrt(scenario.noise_power / 2.0), amp_scale, rng)
        if A_r is not None:
            SIM._mix(Y, amps, freq, A_r, B)
        Y = quantize_received(Y, quant, power)
        out.append(np.einsum("trl,rs,tsl->t", Y.conj(), dense, Y).real)
    return np.concatenate(out)


class TestPipelinedEngine:
    @settings(max_examples=40, deadline=None)
    @given(trials=st.integers(1, 300), block=st.integers(1, 50), chunk=st.integers(1, 20),
           workers=st.integers(1, 3), bits=st.sampled_from([1, 3, "ideal"]),
           with_target=st.booleans(), runs=st.lists(st.integers(0, 2), min_size=1, max_size=3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_whole_batch_chain(self, tiny_scenario, trials, block, chunk, workers, bits,
                                       with_target, runs, seed):
        # each run of the engine, for any block size, chunk size and worker
        # count, equals the per-block oracle
        sc = tiny_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(21))
        quant = None if bits == "ideal" else lloyd_max_codebook(bits)
        theta = sc.target_mean_angle if with_target else None
        model = M.low_rank_covariances(sc, T, M.quantization_model(bits), sc.target_mean_angle)
        form = model.lrt_form(0, sc.code_len)
        power = model.row0 if theta is None else model.row1[0]

        with mock.patch.object(SIM, "_BLOCK_TRIALS", block), \
                mock.patch.object(SIM, "_CHUNK_TRIALS", chunk), \
                ThreadPoolExecutor(workers) as pool:
            engine = SIM._TrialStatistics(sc, T, quant, form, seed, trials, pool)
            got = [engine.run(r, theta, power) for r in runs]
            for r, stats in zip(runs, got):
                ref = _per_block_statistics(sc, T, quant, form, power, theta, seed, r, trials)
                np.testing.assert_allclose(stats, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("bits", [1, 3, "ideal"])
    def test_full_blocks_match_dense_oracle(self, desk_scenario, bits):
        # 512-trial blocks in 64-trial chunks, the last of each cut short; at
        # one bit the engine adds the constant gamma*||y||^2 instead of
        # reducing it.  The ideal ADC's scaled-identity parts are equal, so
        # its gamma is 0 and the norm term is skipped.
        sc = desk_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(22))
        quant = None if bits == "ideal" else lloyd_max_codebook(bits)
        model = M.low_rank_covariances(sc, T, M.quantization_model(bits), sc.target_mean_angle)
        form = model.lrt_form(0, sc.code_len)
        assert (form[2] == 0.0) == (bits == "ideal")
        with ThreadPoolExecutor(2) as pool:
            engine = SIM._TrialStatistics(sc, T, quant, form, 23, 1100, pool)
            for run, theta, power in ((0, None, model.row0),
                                      (2, sc.target_mean_angle, model.row1[0])):
                ref = _per_block_statistics(sc, T, quant, form, power, theta, 23, run, 1100)
                np.testing.assert_allclose(engine.run(run, theta, power), ref,
                                           rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("bits", [1, 3])
    def test_run_holds_about_one_block_per_worker(self, desk_scenario, bits):
        # a running block holds its samples and one chunk's temporaries, so the
        # traced peak (numpy's buffers included) stays under two blocks per
        # worker; whole-run buffers or unchunked stages exceed it
        sc = desk_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(30))
        model = M.low_rank_covariances(sc, T, M.quantization_model(bits), sc.target_mean_angle)
        block_bytes = SIM._BLOCK_TRIALS * sc.n_rx * sc.code_len * np.dtype(complex).itemsize
        workers = 2
        with ThreadPoolExecutor(workers) as pool:
            engine = SIM._TrialStatistics(sc, T, lloyd_max_codebook(bits),
                                          model.lrt_form(0, sc.code_len), 31, 2048, pool)
            tracemalloc.start()
            try:
                engine.run(SIM._H1, sc.target_mean_angle, model.row1[0])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= workers * 2 * block_bytes

    # hits and false alarms of 2,048 trials and the threshold of one desk32
    # point at 10 dB for a seeded random design: a change to the streams, the
    # draw order or the arithmetic of a block moves them
    _REALIZATION = {1: (596, 30, 15.24284660122039), 3: (1307, 27, 16.71062682720757)}

    @pytest.mark.parametrize("bits", [1, 3])
    def test_realization_of_a_seed_is_pinned(self, bits):
        sc = load_scenario("desk32")
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(0))
        point = SIM.simulate_detection(T, sc, bits, 10.0, pfa=0.01, trials=2048, seed=0)
        hits, alarms, threshold = self._REALIZATION[bits]
        assert (point.pd, point.empirical_pfa) == (hits / 2048, alarms / 2048)
        assert point.threshold == pytest.approx(threshold, rel=1e-12, abs=0.0)

    def test_worker_count_does_not_change_the_point(self, tiny_scenario, monkeypatch):
        # more workers than cores and frequent thread switches: a block that
        # wrote the wrong slice changes the point
        sc = tiny_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(24))
        monkeypatch.setattr(SIM, "_BLOCK_TRIALS", 64)
        points = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 4):
                monkeypatch.setattr(SIM, "_WORKERS", workers)
                points.append(SIM.simulate_detection(T, sc, 3, snr_db=0.0, pfa=1e-2,
                                                     trials=2500, seed=25))
        finally:
            sys.setswitchinterval(interval)
        assert points[0] == points[1] == points[2]

    def test_block_task_error_reaches_caller(self, tiny_scenario, monkeypatch):
        def failing_lrt(*args, **kwargs):
            raise RuntimeError("block task failed")

        monkeypatch.setattr(SIM, "lrt_statistics", failing_lrt)
        T = M.random_unit_modulus(8, 2, np.random.default_rng(26))
        with pytest.raises(RuntimeError, match="block task failed"):
            SIM.simulate_detection(T, tiny_scenario, 1, 0.0, pfa=1e-2, trials=2000, seed=0)


class TestDetectionInputs:
    @pytest.mark.parametrize("pfa", [0.0, 1.0, 1.5, -0.1, math.nan, math.inf])
    def test_pfa_outside_unit_interval_rejected(self, tiny_scenario, pfa):
        T = M.random_unit_modulus(8, 2, np.random.default_rng(27))
        with pytest.raises(M.ModelError, match="pfa"):
            SIM.simulate_detection(T, tiny_scenario, 1, 0.0, pfa=pfa, trials=5000, seed=0)

    def test_invalid_snr_refused_by_scenario_validation(self, tiny_scenario):
        T = M.random_unit_modulus(8, 2, np.random.default_rng(29))
        with pytest.raises(M.ModelError):
            SIM.simulate_detection(T, tiny_scenario, 1, math.nan, pfa=1e-2, trials=2000, seed=0)


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
