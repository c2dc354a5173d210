"""End-to-end evaluation: orthogonal waveforms, Monte Carlo detection with a
true few-bit quantizer in the loop, large-array steering diagnostics, and an
empirical check of the linearized quantization model.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from ._accel import lrt_statistics
from .model import (ModelError, Scenario, hypothesis_covariances, model_row_power,
                    quantization_model, steering_matrix)
from .quantizer import ScalarQuantizer, lloyd_max_codebook, quantize_received

DEFAULT_BATCH = 8192
# Trials per block task and per noise draw: a block's temporaries stay small
# enough to be cached, and there are enough blocks to keep every worker busy.
_BLOCK_TRIALS = 512
# one Monte Carlo worker thread per core this process may run on
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def lfm_waveforms(n_rf: int, code_len: int) -> np.ndarray:
    """Orthogonal unit-modulus chirp family, one waveform per row.

    Row n is the common quadratic chirp exp(1j*pi*l^2/L) shifted by the n-th
    DFT harmonic; the rows satisfy S S^H / L = I exactly for n_rf <= L.
    """
    if n_rf > code_len:
        raise ModelError(f"cannot build {n_rf} orthogonal waveforms of length {code_len}")
    ell = np.arange(code_len)
    chirp = np.exp(1j * np.pi * ell ** 2 / code_len)
    shifts = np.exp(2j * np.pi * np.outer(np.arange(n_rf), ell) / code_len)
    return shifts * chirp[None, :]


def _sources(scenario: Scenario, T: np.ndarray, theta_t: float | None):
    """Receive steering ``A_r``, transmit responses ``B`` and amplitude scales.

    The target, when present, is the first source.  All three are ``None``
    when there is no source at all.
    """
    angles = list(scenario.clutter_angles)
    powers = list(scenario.clutter_powers)
    if theta_t is not None:
        angles.insert(0, theta_t)
        powers.insert(0, scenario.target_power)
    if not angles:
        return None, None, None
    A_r = steering_matrix(np.asarray(angles), scenario.n_rx)
    A_t = steering_matrix(np.asarray(angles), scenario.n_tx)
    B = A_t.T @ (T @ lfm_waveforms(scenario.n_rf, scenario.code_len))   # (n_src, L)
    return A_r, B, np.sqrt(np.asarray(powers) / 2.0)


def _draw(Y: np.ndarray, scratch: np.ndarray, noise_scale: float, amp_scale: np.ndarray | None,
          rng: np.random.Generator, doppler: bool):
    """Fill ``Y`` with scaled noise and draw the source amplitudes and Dopplers.

    Draw order (noise real block, noise imaginary block, amplitude real and
    imaginary parts, Doppler frequencies) fixes the realization for a seed.
    The noise is drawn through the contiguous ``scratch`` a few trials at a
    time, which gives the same numbers as one whole-block draw.
    """
    m, c = Y.shape[0], scratch.shape[0]
    for part in (Y.real, Y.imag):
        for a in range(0, m, c):
            draw = scratch[:min(c, m - a)]
            rng.standard_normal(out=draw)
            np.multiply(draw, noise_scale, out=part[a:a + draw.shape[0]])
    if amp_scale is None:
        return None, None
    n_src = amp_scale.size
    amps = rng.standard_normal((m, n_src)) + 1j * rng.standard_normal((m, n_src))
    amps *= amp_scale
    freq = rng.uniform(0.0, 1.0, size=(m, n_src)) if doppler else None
    return amps, freq


def _mix(Y: np.ndarray, amps: np.ndarray, freq: np.ndarray | None,
         A_r: np.ndarray, B: np.ndarray) -> None:
    """Add the sources' echoes, Doppler-ramped when ``freq`` is given, to ``Y``."""
    L = Y.shape[-1]
    if freq is not None:
        phase = (2.0 * np.pi * freq)[:, :, None] * np.arange(L)
        src_signals = np.empty(phase.shape, dtype=complex)     # Doppler ramps
        np.cos(phase, out=src_signals.real)
        np.sin(phase, out=src_signals.imag)
        # complex products round differently with swapped operands: keep amps first
        np.multiply(amps[:, :, None], src_signals, out=src_signals)
    else:
        src_signals = np.repeat(amps[:, :, None], L, axis=2)
    src_signals *= B
    Y += np.matmul(A_r, src_signals)


def received_batch(scenario: Scenario, T: np.ndarray, theta_t: float | None,
                   trials: int, rng: np.random.Generator,
                   doppler: bool = True) -> np.ndarray:
    """Draw (trials, n_rx, code_len) raw received sample matrices.

    Reflection coefficients are complex Gaussian per trial; each scatterer
    carries a random normalized Doppler ramp across the snapshot index, which
    leaves all second-order statistics unchanged but is included for
    fidelity.  ``theta_t=None`` simulates the no-target hypothesis.
    """
    shape = (trials, scenario.n_rx, scenario.code_len)
    Y = np.empty(shape, dtype=complex)
    scratch = np.empty((max(1, min(trials, _BLOCK_TRIALS)),) + shape[1:])
    A_r, B, amp_scale = _sources(scenario, T, theta_t)
    amps, freq = _draw(Y, scratch, math.sqrt(scenario.noise_power / 2.0), amp_scale, rng, doppler)
    if A_r is not None:
        _mix(Y, amps, freq, A_r, B)
    return Y


@dataclass(frozen=True)
class DetectionPoint:
    snr_db: float
    pd: float
    ci_halfwidth: float
    empirical_pfa: float
    threshold: float
    trials: int


@dataclass
class DetectionCurve:
    """Detection probability against SNR at a calibrated false-alarm rate."""

    snr_db: np.ndarray
    pd: np.ndarray
    ci_halfwidth: np.ndarray
    empirical_pfa: np.ndarray
    pfa_target: float
    trials: int
    seed: int
    bits: int | str = "ideal"

    def __post_init__(self):
        if np.any(self.pd < 0.0) or np.any(self.pd > 1.0):
            raise ModelError("detection probabilities must lie in [0, 1]")
        if self.trials < 10.0 / self.pfa_target:
            raise ModelError("too few trials to calibrate the requested false-alarm rate")


def check_detection_settings(pfa: float, trials: int, batch_size: int = DEFAULT_BATCH) -> None:
    """Refuse a false-alarm rate, trial count or batch size detection cannot use."""
    if not 0.0 < pfa < 1.0:          # also refuses NaN and infinities
        raise ModelError(f"pfa must be finite and in (0, 1), got {pfa!r}")
    if trials < 10.0 / pfa:
        raise ModelError(
            f"need at least {int(10.0 / pfa)} trials to calibrate pfa={pfa:g}, got {trials}")
    _check_batch_size(batch_size)


def _check_batch_size(batch_size: int) -> None:
    if batch_size < 1:
        raise ModelError(f"batch_size must be at least 1, got {batch_size!r}")


class _TrialStatistics:
    """Per-trial LRT statistics, every trial drawn in order from one generator.

    Each batch is a draw task and a set of block tasks on a pool of
    ``_WORKERS`` threads.  Only the draw task touches the generator, one at a
    time and in batch order; it fills one of two reused batch buffers.  Each
    block task mixes the sources into ``_BLOCK_TRIALS`` trials of a drawn
    batch in place, quantizes them and reduces their statistics.  Batch k+1
    is drawn into the other buffer while the blocks of batch k run.  Every
    step after the draw works per trial, so the statistics do not depend on
    the worker count or the block size.
    """

    def __init__(self, scenario: Scenario, T: np.ndarray, quant: ScalarQuantizer | None,
                 M: np.ndarray, rng: np.random.Generator, trials: int, batch_size: int):
        self.scenario, self.T, self.quant, self.M = scenario, T, quant, M
        self.rng, self.trials, self.batch_size = rng, trials, batch_size
        # pages are mapped on first write, so an unused second buffer costs nothing
        shape = (min(batch_size, trials), scenario.n_rx, scenario.code_len)
        self._buffers = [np.empty(shape, dtype=complex) for _ in range(2)]

    def run(self, theta_t: float | None, row_power: float) -> np.ndarray:
        """Statistics of ``trials`` trials of one hypothesis (``theta_t=None``: no target)."""
        sc, rng, quant, M, trials = self.scenario, self.rng, self.quant, self.M, self.trials
        A_r, B, amp_scale = _sources(sc, self.T, theta_t)
        noise_scale = math.sqrt(sc.noise_power / 2.0)
        blk = _BLOCK_TRIALS
        scratch = np.empty((min(blk, self.batch_size, trials), sc.n_rx, sc.code_len))
        starts = range(0, trials, self.batch_size)
        out = np.empty(trials)

        def draw(k):
            Y = self._buffers[k % 2][:min(self.batch_size, trials - starts[k])]
            return (Y,) + _draw(Y, scratch, noise_scale, amp_scale, rng, True)

        def block(start, Y, amps, freq, a):
            Y = Y[a:a + blk]                 # slices clip at the end of the batch
            if A_r is not None:
                _mix(Y, amps[a:a + blk], freq[a:a + blk], A_r, B)
            out[start + a:start + a + len(Y)] = lrt_statistics(
                quantize_received(Y, quant, row_power), M)

        pool = ThreadPoolExecutor(_WORKERS)
        try:
            blocks = []
            drawn = pool.submit(draw, 0)
            for k, start in enumerate(starts):
                Y, amps, freq = drawn.result()
                for f in blocks:             # the previous batch frees the other buffer
                    f.result()
                if k + 1 < len(starts):
                    drawn = pool.submit(draw, k + 1)
                blocks = [pool.submit(block, start, Y, amps, freq, a)
                          for a in range(0, len(Y), blk)]
            for f in blocks:
                f.result()
        finally:
            pool.shutdown(cancel_futures=True)
        return out


def simulate_detection(T: np.ndarray, scenario: Scenario, bits: int | str,
                       snr_db: float, pfa: float, trials: int, seed: int,
                       batch_size: int = DEFAULT_BATCH) -> DetectionPoint:
    """Monte Carlo detection probability at one SNR.

    The target power is set to snr * noise power; data are synthesized per
    hypothesis, passed through the true quantizer (gain-controlled by the
    model row variance of its own hypothesis), and reduced by the Gaussian
    likelihood-ratio statistic sum_l y^H (R0^-1 - R1^-1) y built from the
    model covariances at the mean target angle.  The threshold is the
    empirical (1 - pfa) quantile of an independent calibration batch; the
    returned false-alarm rate is measured on a second, disjoint batch.
    """
    check_detection_settings(pfa, trials, batch_size)
    sc = replace(scenario, target_power=scenario.noise_power * 10.0 ** (snr_db / 10.0))
    q = quantization_model(bits)
    quant = None if q.ideal else lloyd_max_codebook(int(bits))
    theta = sc.target_mean_angle

    cov = hypothesis_covariances(sc, T, q, theta)
    L = sc.code_len
    M = np.linalg.inv(cov.r0 / L) - np.linalg.inv(cov.r1 / L)
    M = 0.5 * (M + M.conj().T)

    p0 = model_row_power(sc, T, None)
    p1 = model_row_power(sc, T, theta)

    stats = _TrialStatistics(sc, T, quant, M, np.random.default_rng(seed), trials, batch_size)
    cal = stats.run(None, p0)
    threshold = float(np.quantile(cal, 1.0 - pfa))
    h0 = stats.run(None, p0)
    h1 = stats.run(theta, p1)

    pd = float(np.mean(h1 > threshold))
    ci = 1.96 * math.sqrt(max(pd * (1.0 - pd), 1.0 / trials) / trials)
    return DetectionPoint(snr_db=snr_db, pd=pd, ci_halfwidth=ci,
                          empirical_pfa=float(np.mean(h0 > threshold)),
                          threshold=threshold, trials=trials)


def detection_curve(T: np.ndarray, scenario: Scenario, bits: int | str,
                    snr_grid_db, pfa: float, trials: int, seed: int,
                    batch_size: int = DEFAULT_BATCH) -> DetectionCurve:
    """Sweep ``simulate_detection`` over an SNR grid with per-point seed offsets."""
    check_detection_settings(pfa, trials, batch_size)
    points = [simulate_detection(T, scenario, bits, s, pfa, trials, seed + 1000 * i, batch_size)
              for i, s in enumerate(snr_grid_db)]
    return DetectionCurve(
        snr_db=np.asarray([p.snr_db for p in points]),
        pd=np.asarray([p.pd for p in points]),
        ci_halfwidth=np.asarray([p.ci_halfwidth for p in points]),
        empirical_pfa=np.asarray([p.empirical_pfa for p in points]),
        pfa_target=pfa, trials=trials, seed=seed, bits=bits)


def sample_h0_covariance_error(scenario: Scenario, T: np.ndarray, bits: int | str,
                               snapshots: int, seed: int,
                               batch_size: int = DEFAULT_BATCH) -> float:
    """Relative Frobenius gap between quantized sample and model covariance.

    Draws no-target data, quantizes it, accumulates the per-snapshot sample
    covariance and compares against the per-snapshot model covariance; this
    is the empirical justification of the linearized quantizer model.
    """
    _check_batch_size(batch_size)
    q = quantization_model(bits)
    quant = None if q.ideal else lloyd_max_codebook(int(bits))
    L = scenario.code_len
    trials = max(1, math.ceil(snapshots / L))
    p0 = model_row_power(scenario, T, None)
    rng = np.random.default_rng(seed)

    n_r = scenario.n_rx
    acc = np.zeros((n_r, n_r), dtype=complex)
    done = 0
    count = 0
    while done < trials:
        m = min(batch_size, trials - done)
        Y = quantize_received(received_batch(scenario, T, None, m, rng), quant, p0)
        Y = Y.transpose(1, 0, 2).reshape(n_r, -1)           # (n_rx, trials * L)
        acc += Y @ Y.conj().T
        count += m * L
        done += m
    sample_cov = acc / count
    model_cov = hypothesis_covariances(scenario, T, q, scenario.target_mean_angle).r0 / L
    return float(np.linalg.norm(sample_cov - model_cov) / np.linalg.norm(model_cov))


def steering_crosscorr_experiment(n_rx_list, n_clutter: int, trials: int,
                                  seed: int) -> np.ndarray:
    """Mean Frobenius gap between the steering Gram matrix and identity.

    For each array size, draws ``n_clutter + 1`` directions uniformly on
    [-pi/2, pi/2] and measures ||A^H A - I||_F; the mean over trials decays
    as the array grows, which is what justifies treating distinct steering
    vectors as orthogonal in the large-array surrogate.
    """
    if trials < 1000:
        raise ModelError("use at least 1000 trials for a stable mean")
    rng = np.random.default_rng(seed)
    out = np.empty(len(n_rx_list))
    eye = np.eye(n_clutter + 1)
    for i, n_r in enumerate(n_rx_list):
        angles = rng.uniform(-np.pi / 2, np.pi / 2, size=(trials, n_clutter + 1))
        m = np.arange(n_r)[:, None, None]
        A = np.exp(-1j * np.pi * m * np.sin(angles).T[None, :, :]) / np.sqrt(n_r)
        grams = np.einsum("rpt,rqt->tpq", A.conj(), A)
        out[i] = np.mean(np.linalg.norm(grams - eye[None], axis=(1, 2)))
    return out
