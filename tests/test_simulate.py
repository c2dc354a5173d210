import copy
import dataclasses
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cebeam import model as M
from cebeam import simulate as SIM
from cebeam.pipeline import ExperimentSpec, load_scenario, run_pipeline
from cebeam.quantizer import lloyd_max_codebook, quantize_received

from oracle import one_bit_covariance, sample_h0_covariance_error, steering_gram_errors


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


def _per_block_statistics(scenario, T, quant, form, power, theta_t, seed, run, trials,
                          gain=1.0):
    """Statistics of one run rebuilt block by block from the documented streams.

    Block b of run r draws from SeedSequence(seed, spawn_key=(r, b)) through
    ``_draw`` and ``_mix``, is quantized by ``quantize_received`` and reduced
    with the dense gamma*I + G^H diag(w) G.  ``scenario`` is the curve's
    point 0; the target samples of a point i carry point 0's draw with the
    target amplitude scaled by ``gain`` = sqrt(P_i / P_0).
    """
    G, w, gamma = form
    dense = gamma * np.eye(scenario.n_rx) + (G.conj().T * w) @ G
    shape, noise_scale, A_r, B, amp_scale = SIM._sources(scenario, T, theta_t)
    blk = SIM._BLOCK_TRIALS
    out = []
    for b, a in enumerate(range(0, trials, blk)):
        m = min(blk, trials - a)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(run, b))))
        Y = np.empty((m,) + shape, dtype=complex)
        amps, freq = SIM._draw(Y, noise_scale, amp_scale, rng)
        if theta_t is not None:
            amps[:, 0] *= gain
        if A_r is not None:
            SIM._mix(Y, amps, freq, A_r, B)
        Y = quantize_received(Y, quant, power)
        out.append(np.einsum("trl,rs,tsl->t", Y.conj(), dense, Y).real)
    return np.concatenate(out)


def _curve_models(scenario, T, bits, snrs):
    """Point 0's scenario, and each point's model, form and target-amplitude gain."""
    scs = [SIM.scenario_at_snr(scenario, s) for s in snrs]
    models = [M.low_rank_covariances(sc, T, M.quantization_model(bits), sc.target_mean_angle)
              for sc in scs]
    forms = [m.lrt_form(0, scenario.code_len) for m in models]
    gains = [math.sqrt(sc.target_power / scs[0].target_power) for sc in scs]
    return scs[0], models, forms, gains


class TestPipelinedEngine:
    @settings(max_examples=40, deadline=None)
    @given(trials=st.integers(1, 300), block=st.integers(1, 50), chunk=st.integers(1, 20),
           workers=st.integers(1, 3), bits=st.sampled_from([1, 3, "ideal"]),
           with_target=st.booleans(), runs=st.lists(st.integers(0, 2), min_size=1, max_size=3),
           snrs=st.lists(st.sampled_from([-4.0, 0.0, 3.0, 7.0]), min_size=1, max_size=3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_whole_batch_chain(self, tiny_scenario, trials, block, chunk, workers, bits,
                                       with_target, runs, snrs, seed):
        # each run of the curve engine, for any block size, chunk size,
        # worker count and SNR grid, equals the per-block oracle point by point
        sc = tiny_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(21))
        quant = None if bits == "ideal" else lloyd_max_codebook(bits)
        theta = sc.target_mean_angle if with_target else None
        sc0, models, forms, gains = _curve_models(sc, T, bits, snrs)
        powers = [m.row1[0] for m in models] if with_target else [models[0].row0] * len(snrs)

        with mock.patch.object(SIM, "_BLOCK_TRIALS", block), \
                mock.patch.object(SIM, "_CHUNK_TRIALS", chunk), \
                mock.patch.object(SIM, "_WORKERS", workers):
            sources = SIM._sources(sc0, T, theta)
            got = [SIM._run_statistics(sources, quant, forms, seed, trials, r, powers, gains)
                   if with_target else
                   SIM._run_statistics(sources, quant, forms, seed, trials, r, powers[0])
                   for r in runs]
            for r, stats in zip(runs, got):
                for i in range(len(snrs)):
                    ref = _per_block_statistics(sc0, T, quant, forms[i], powers[i], theta, seed,
                                                r, trials, gains[i])
                    np.testing.assert_allclose(stats[i], ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("bits", [1, 3, "ideal"])
    def test_full_blocks_match_dense_oracle(self, desk_scenario, bits):
        # 512-trial blocks in 64-trial chunks, the last of each cut short; the
        # engine reduces gamma*||y||^2 at every resolution.  The ideal ADC's
        # scaled-identity parts are equal, so its gamma is 0 and the norm
        # term adds 0.
        sc = desk_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(22))
        quant = None if bits == "ideal" else lloyd_max_codebook(bits)
        sc0, models, forms, gains = _curve_models(sc, T, bits, (0.0, 5.0))
        assert all((form[2] == 0.0) == (bits == "ideal") for form in forms)
        with mock.patch.object(SIM, "_WORKERS", 2):
            calibration = SIM._run_statistics(SIM._sources(sc0, T, None), quant, forms, 23,
                                              1100, 0, models[0].row0)
            target = SIM._run_statistics(SIM._sources(sc0, T, sc.target_mean_angle), quant,
                                         forms, 23, 1100, 2, [m.row1[0] for m in models], gains)
        for i, (form, model, gain) in enumerate(zip(forms, models, gains)):
            ref = _per_block_statistics(sc0, T, quant, form, model.row0, None, 23, 0, 1100)
            np.testing.assert_allclose(calibration[i], ref, rtol=1e-13, atol=0.0)
            ref = _per_block_statistics(sc0, T, quant, form, model.row1[0],
                                        sc.target_mean_angle, 23, 2, 1100, gain)
            np.testing.assert_allclose(target[i], ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("bits", [1, 3])
    def test_run_holds_about_one_block_per_worker(self, desk_scenario, bits):
        # a running block holds its samples and one chunk's temporaries, so the
        # traced peak (numpy's buffers included) stays under two blocks per
        # worker; whole-run buffers or unchunked stages exceed it
        sc = desk_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(30))
        sc0, models, forms, gains = _curve_models(sc, T, bits, (10.0, 0.0, 5.0))
        block_bytes = SIM._BLOCK_TRIALS * sc.n_rx * sc.code_len * np.dtype(complex).itemsize
        workers = 2
        with mock.patch.object(SIM, "_WORKERS", workers):
            quant = lloyd_max_codebook(bits)
            tracemalloc.start()
            try:
                SIM._run_statistics(SIM._sources(sc0, T, sc.target_mean_angle), quant, forms,
                                    31, 2048, SIM._H1, [m.row1[0] for m in models], gains)
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
        points, pfas = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 4):
                monkeypatch.setattr(SIM, "_WORKERS", workers)
                point = SIM.simulate_detection(T, sc, 3, snr_db=0.0, pfa=1e-2,
                                               trials=2500, seed=25)
                points.append(point)
                pfas.append(point.empirical_pfa)      # the H0 run, on this worker count
        finally:
            sys.setswitchinterval(interval)
        assert points[0] == points[1] == points[2]
        assert pfas[0] == pfas[1] == pfas[2]

    def test_block_task_error_reaches_caller(self, tiny_scenario, monkeypatch):
        def failing_lrt(*args, **kwargs):
            raise RuntimeError("block task failed")

        monkeypatch.setattr(SIM, "lrt_statistics", failing_lrt)
        T = M.random_unit_modulus(8, 2, np.random.default_rng(26))
        with pytest.raises(RuntimeError, match="block task failed"):
            SIM.simulate_detection(T, tiny_scenario, 1, 0.0, pfa=1e-2, trials=2000, seed=0)

    def test_h0_block_error_reaches_reader(self, tiny_scenario, monkeypatch):
        # the H0 run is made when empirical_pfa is read, so its error surfaces there
        block_rng = SIM._block_rng

        def failing_h0_rng(seed, run, block):
            if run == SIM._H0:
                raise RuntimeError("H0 block failed")
            return block_rng(seed, run, block)

        monkeypatch.setattr(SIM, "_block_rng", failing_h0_rng)
        T = M.random_unit_modulus(8, 2, np.random.default_rng(26))
        point = SIM.simulate_detection(T, tiny_scenario, 1, 0.0, pfa=1e-2, trials=2000, seed=0)
        with pytest.raises(RuntimeError, match="H0 block failed"):
            point.empirical_pfa

    @pytest.mark.parametrize("bits", [1, 3])
    def test_point_runs_match_the_per_block_oracle(self, tiny_scenario, bits):
        # the calibration and H0 runs draw no target and scale the rows by
        # row0; the target run draws the target and scales them by row1[0]
        sc = SIM.scenario_at_snr(tiny_scenario, 0.0)
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(37))
        point = SIM.simulate_detection(T, tiny_scenario, bits, 0.0, pfa=1e-2, trials=1500,
                                       seed=38)
        model = M.low_rank_covariances(sc, T, M.quantization_model(bits), sc.target_mean_angle)
        quant, form = lloyd_max_codebook(bits), model.lrt_form(0, sc.code_len)
        calibration, h0, h1 = (
            _per_block_statistics(sc, T, quant, form, power, theta, 38, run, 1500)
            for run, theta, power in ((SIM._CALIBRATION, None, model.row0),
                                      (SIM._H0, None, model.row0),
                                      (SIM._H1, sc.target_mean_angle, model.row1[0])))
        assert point.threshold == pytest.approx(np.quantile(calibration, 0.99), rel=1e-12)
        assert point.pd == np.mean(h1 > point.threshold)
        assert point.empirical_pfa == np.mean(h0 > point.threshold)

    @pytest.mark.parametrize("bits", [1, 3, "ideal"])
    def test_curve_points_match_the_per_block_oracle(self, tiny_scenario, monkeypatch, bits):
        # every point of a curve reads the one calibration, H0 and target
        # runs: its own form, its own row1 and its target amplitude scaled
        # by sqrt(P_i / P_0); no worker count changes a point
        snrs, pfa, trials, seed = (2.0, -3.0, 6.0), 2e-2, 1500, 39
        sc = tiny_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(40))
        quant = None if bits == "ideal" else lloyd_max_codebook(bits)
        sc0, models, forms, gains = _curve_models(sc, T, bits, snrs)
        monkeypatch.setattr(SIM, "_BLOCK_TRIALS", 256)
        runs = {name: SIM._run_statistics(SIM._sources(sc0, T, theta), quant, forms, seed,
                                          trials, run, *args)
                for name, run, theta, args in (
                    ("calibration", SIM._CALIBRATION, None, (models[0].row0,)),
                    ("h0", SIM._H0, None, (models[0].row0,)),
                    ("h1", SIM._H1, sc.target_mean_angle, ([m.row1[0] for m in models], gains)))}
        expected = []
        for i, (form, model, gain) in enumerate(zip(forms, models, gains)):
            oracle = {name: _per_block_statistics(sc0, T, quant, form, power, theta, seed, run,
                                                  trials, gain)
                      for name, run, theta, power in (
                          ("calibration", SIM._CALIBRATION, None, model.row0),
                          ("h0", SIM._H0, None, model.row0),
                          ("h1", SIM._H1, sc.target_mean_angle, model.row1[0]))}
            for name in oracle:
                np.testing.assert_allclose(runs[name][i], oracle[name], rtol=1e-12, atol=0.0)
            threshold = float(np.quantile(runs["calibration"][i], 1.0 - pfa))
            assert threshold == pytest.approx(np.quantile(oracle["calibration"], 1.0 - pfa),
                                              rel=1e-12)
            expected.append((threshold, np.mean(oracle["h1"] > threshold),
                             np.mean(oracle["h0"] > threshold)))
        assert len({t for t, _, _ in expected}) == len(snrs)
        for workers in (1, 2, 3):
            monkeypatch.setattr(SIM, "_WORKERS", workers)
            curve = SIM.detection_curve(T, sc, bits, snrs, pfa, trials, seed)
            got = [(p.threshold, p.pd, p.empirical_pfa) for p in curve._points]
            assert got == expected

    def test_false_alarm_rate_read_later_ignores_changes_to_the_inputs(self, tiny_scenario):
        # the point measures empirical_pfa on the design and scenario it was
        # computed for, whatever the caller does to their arrays in between
        sc = copy.deepcopy(tiny_scenario)
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(32))
        untouched_sc, untouched_T = copy.deepcopy(sc), T.copy()
        point = SIM.simulate_detection(T, sc, 1, 0.0, pfa=1e-2, trials=2000, seed=33)
        T[:] = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(34))
        sc.clutter_powers *= 100.0
        ref = SIM.simulate_detection(untouched_T, untouched_sc, 1, 0.0, pfa=1e-2, trials=2000,
                                     seed=33)
        assert point.empirical_pfa == ref.empirical_pfa


def _record_runs(monkeypatch) -> list[tuple[int, int]]:
    """Patch the block streams to log the (run, block) of every draw."""
    drawn, block_rng = [], SIM._block_rng

    def recording_rng(seed, run, block):
        drawn.append((run, block))
        return block_rng(seed, run, block)

    monkeypatch.setattr(SIM, "_block_rng", recording_rng)
    return drawn


class TestFalseAlarmRunOnDemand:
    def test_sweep_snr_draws_no_h0_trial(self, tmp_path, monkeypatch):
        # detection.csv holds pd alone, so the command makes only the
        # calibration and target runs, each drawn once for both SNR points
        drawn = _record_runs(monkeypatch)
        spec = ExperimentSpec(command="sweep-snr", scenario="desk32", bits=1, max_iters=20,
                              pfa=1e-2, trials=2048, snr_grid_db=(-5.0, 0.0),
                              out_dir=str(tmp_path))
        run_pipeline(spec)
        blocks = 2048 // SIM._BLOCK_TRIALS
        assert sorted(drawn) == sorted([(r, b) for r in (SIM._CALIBRATION, SIM._H1)
                                        for b in range(blocks)])

    def test_h0_run_made_once_on_first_read(self, tiny_scenario, monkeypatch):
        sc = tiny_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(35))
        drawn = _record_runs(monkeypatch)
        curve = SIM.detection_curve(T, sc, 1, (-5.0, 0.0), 1e-2, 2000, seed=36)
        assert all(run != SIM._H0 for run, _ in drawn)
        del drawn[:]
        first = curve.empirical_pfa
        assert np.array_equal(curve.empirical_pfa, first)     # the points keep their values
        blocks = -(-2000 // SIM._BLOCK_TRIALS)         # one H0 run for the whole curve
        assert sorted(drawn) == sorted([(SIM._H0, b) for b in range(blocks)])


# one detection point, its H0 run included, in a process of its own
_ONE_POINT = """
import numpy as np
from cebeam import model as M, simulate as SIM
from cebeam.pipeline import load_scenario
sc = load_scenario("desk32")
T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(0))
point = SIM.simulate_detection(T, sc, 1, 0.0, pfa=0.01, trials=1000, seed=0)
print(point.pd, point.empirical_pfa)
"""


class TestWorkerPool:
    def test_runs_reuse_the_worker_threads(self, tiny_scenario, monkeypatch):
        # the calibration, target and H0 runs of two points map their blocks
        # over one pool; a pool per run starts new threads for each
        threads, block_rng = [], SIM._block_rng

        def recording_rng(seed, run, block):
            threads.append(threading.current_thread())
            return block_rng(seed, run, block)

        monkeypatch.setattr(SIM, "_block_rng", recording_rng)
        monkeypatch.setattr(SIM, "_WORKERS", 2)
        sc = tiny_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(40))
        first = SIM.simulate_detection(T, sc, 1, 0.0, pfa=1e-2, trials=2000, seed=41)
        SIM.simulate_detection(T, sc, 3, 0.0, pfa=1e-2, trials=2000, seed=42)
        first.empirical_pfa
        assert len(threads) == 5 * -(-2000 // SIM._BLOCK_TRIALS)
        assert len(set(threads)) <= 2

    def test_pool_does_not_hold_the_interpreter_open(self):
        env = {**os.environ, "PYTHONPATH": str(Path(SIM.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", _ONE_POINT], capture_output=True,
                              text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr


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

    # -4000 dB underflows to a power of 0: with no target power every
    # statistic would be 0, and pd would read 0 instead of about pfa
    @pytest.mark.parametrize("snr_db", [-math.inf, -4000.0])
    def test_snr_without_target_power_refused(self, tiny_scenario, snr_db):
        with pytest.raises(M.ModelError, match="no finite, positive target power"):
            SIM.scenario_at_snr(tiny_scenario, snr_db)
        T = M.random_unit_modulus(8, 2, np.random.default_rng(29))
        with pytest.raises(M.ModelError, match="no finite, positive target power"):
            SIM.detection_curve(T, tiny_scenario, 1, (snr_db, 0.0), 1e-2, 2000, seed=0)

    # the one SNR check gives one message, which does not call these "no power"
    @pytest.mark.parametrize("snr_db", [math.nan, math.inf, 1e308])
    def test_snr_without_finite_target_power_refused(self, tiny_scenario, snr_db):
        with pytest.raises(M.ModelError, match="no finite, positive target power"):
            SIM.scenario_at_snr(tiny_scenario, snr_db)

    def test_smallest_positive_target_power_accepted(self, tiny_scenario):
        # -3230 dB is a subnormal power, above 0
        assert 0.0 < SIM.scenario_at_snr(tiny_scenario, -3230.0).target_power < 1e-300


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

    def test_chunks_match_whole_batch_to_the_bit(self):
        # 1,000 trials make several chunks, the last one short
        assert 1000 % SIM._GRAM_TRIALS and 1000 // SIM._GRAM_TRIALS > 2
        args = ((32, 64, 256), 20, 1000, 4)
        got = SIM.steering_crosscorr_experiment(*args)
        assert got.tobytes() == steering_gram_errors(*args).tobytes()

    def test_peak_memory_bounded_by_a_chunk(self):
        # the whole batch holds two (n_r, K + 1, trials) complex arrays, 86 MB
        # each here; chunks of 64 trials peak near 18 MB
        n_r, k, trials = 256, 20, 1000
        whole_bytes = n_r * (k + 1) * trials * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            SIM.steering_crosscorr_experiment((n_r,), k, trials, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= whole_bytes / 3


class TestQuantizedCovariance:
    def test_small_scale_model_agreement(self, tiny_scenario):
        sc = tiny_scenario
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(3))
        err = sample_h0_covariance_error(sc, T, 2, snapshots=40_000, seed=12)
        assert err < 0.08


def _engine_covariances(monkeypatch, scenario, T, snrs, trials, seed):
    """The 1-bit samples a detection curve reduces, as one covariance per run and point.

    Returns {(run, point): (mean, variance)}: the mean over trials of each
    trial's snapshot-averaged y y^H, and the sampling variance of each entry
    of that mean, from the spread of the trials.  A no-target run quantizes
    one set of samples for every point, kept as point 0's.  The statistics
    are not computed; the empirical pfa is read, so the H0 run is made.
    """
    sums, lock, engine = {}, threading.Lock(), SIM._run_statistics

    def tagged(sources, quant, forms, seed, trials, run, row_power, gains=None):
        # the recorder below takes each form's last entry for its (run, point)
        forms = [(G, w, (run, i)) for i, (G, w, _) in enumerate(forms)]
        return engine(sources, quant, forms, seed, trials, run, row_power, gains)

    def record(Y, G, w, tag):
        if tag[0] == SIM._H1 or tag[1] == 0:
            Z = Y @ Y.conj().swapaxes(1, 2) / Y.shape[-1]
            with lock:
                n, total, power = sums.get(tag, (0, 0.0, 0.0))
                sums[tag] = (n + len(Z), total + Z.sum(0), power + (np.abs(Z) ** 2).sum(0))
        return np.zeros(len(Y))

    monkeypatch.setattr(SIM, "_run_statistics", tagged)
    monkeypatch.setattr(SIM, "lrt_statistics", record)
    SIM.detection_curve(T, scenario, 1, snrs, 1e-2, trials, seed).empirical_pfa
    return {tag: (total / n, (power / n - np.abs(total / n) ** 2) / n)
            for tag, (n, total, power) in sums.items()}


class TestOneBitArcsineLaw:
    """The engine's 1-bit samples against their exact covariance (``one_bit_covariance``).

    On desk32 with a random design (seed 11), at 20 and 10 dB: the strong
    target lets a wrong echo gain show.  The diagonal of a 1-bit covariance
    is 2 row/pi in every sample, so it is held to the Lloyd-Max level's
    distance from sqrt(2/pi), a few 1e-9; the off-diagonal gap is held to
    its own sampling SD.
    """

    SNRS = (20.0, 10.0)
    # the off-diagonal Frobenius gap over its sampling SD: about 1.0 +- 0.07
    # over seeds on correct code
    Z_BOUND = 1.5

    @pytest.fixture(scope="class")
    def setting(self):
        sc = load_scenario("desk32")
        return sc, M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(11))

    def test_engine_samples_follow_the_law(self, setting, monkeypatch):
        sc, T = setting
        got = _engine_covariances(monkeypatch, sc, T, self.SNRS, 20_480, seed=0)
        # calibration and H0 runs without a target, the target run at each point
        assert sorted(got) == [(SIM._CALIBRATION, 0), (SIM._H0, 0), (SIM._H1, 0), (SIM._H1, 1)]
        off, q = ~np.eye(sc.n_rx, dtype=bool), M.quantization_model(1)
        for (run, i), (mean, var) in got.items():
            sc_i = SIM.scenario_at_snr(sc, self.SNRS[i])
            theta = sc.target_mean_angle if run == SIM._H1 else None
            exact = one_bit_covariance(sc_i, T, theta)
            np.testing.assert_allclose(np.diag(mean), np.diag(exact), rtol=1e-8, atol=0.0)
            sd = math.sqrt(var[off].sum())
            z = np.linalg.norm((mean - exact)[off]) / sd
            assert z < self.Z_BOUND, (run, i, z)
            # the bound is tight enough to refuse the linearized model (2.7 to 4.0 SD)
            model = M.hypothesis_covariances(sc_i, T, q, sc.target_mean_angle)
            linear = (model.r0 if theta is None else model.r1) / sc.code_len
            assert np.linalg.norm((mean - linear)[off]) / sd > 2.5, (run, i)

    def test_linearized_model_bias(self, setting):
        # the model's relative Frobenius gap from the law at 20 dB, without
        # and with the target
        sc, T = setting
        sc20, q = SIM.scenario_at_snr(sc, self.SNRS[0]), M.quantization_model(1)
        model = M.hypothesis_covariances(sc20, T, q, sc.target_mean_angle)
        for r, theta, bias in ((model.r0, None, 0.0227), (model.r1, sc.target_mean_angle, 0.0296)):
            exact = one_bit_covariance(sc20, T, theta)
            gap = np.linalg.norm(r / sc.code_len - exact) / np.linalg.norm(exact)
            assert gap == pytest.approx(bias, abs=2e-4)
