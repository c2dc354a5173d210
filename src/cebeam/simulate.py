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
from .model import (ModelError, Scenario, db_to_linear, low_rank_covariances,
                    quantization_model, steering_matrix)
# the dense oracle, under the name perfbench's tracer wraps in this module
from .model import hypothesis_covariances  # noqa: F401
from .quantizer import ScalarQuantizer, lloyd_max_codebook, quantize_received

# Trials per Monte Carlo block.  Block b of run r of a detection point draws
# from its own stream, SeedSequence(seed, spawn_key=(r, b)), so this constant
# defines the realization of a seed.  There are enough blocks to keep every
# worker busy.
_BLOCK_TRIALS = 512
# Trials per stage chunk: a block draws its noise, and mixes, quantizes and
# reduces its trials, this many at a time, so numpy's temporaries stay small
# enough to be cached.  It changes no result.
_CHUNK_TRIALS = 64
# the runs of a detection point, numbered as their streams' first spawn key
_CALIBRATION, _H0, _H1 = range(3)
# trials per received_batch call when accumulating a sample covariance
_COVARIANCE_CHUNK = 8192
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


def _draw(Y: np.ndarray, noise_scale: float, amp_scale: np.ndarray | None,
          rng: np.random.Generator):
    """Fill ``Y`` with scaled noise and draw the source amplitudes and Dopplers.

    Draw order (noise real block, noise imaginary block, amplitude real and
    imaginary parts, Doppler frequencies) fixes the realization for a seed.
    The noise is drawn through a contiguous buffer of ``_CHUNK_TRIALS``
    trials, which gives the same numbers as one whole-block draw.
    """
    m = Y.shape[0]
    c = max(1, min(m, _CHUNK_TRIALS))
    buf = np.empty((c,) + Y.shape[1:])
    for part in (Y.real, Y.imag):
        for a in range(0, m, c):
            draw = buf[:min(c, m - a)]
            rng.standard_normal(out=draw)
            np.multiply(draw, noise_scale, out=part[a:a + draw.shape[0]])
    if amp_scale is None:
        return None, None
    n_src = amp_scale.size
    amps = rng.standard_normal((m, n_src)) + 1j * rng.standard_normal((m, n_src))
    amps *= amp_scale
    return amps, rng.uniform(0.0, 1.0, size=(m, n_src))


def _mix(Y: np.ndarray, amps: np.ndarray, freq: np.ndarray,
         A_r: np.ndarray, B: np.ndarray) -> None:
    """Add the sources' echoes, Doppler-ramped at normalized frequencies ``freq``, to ``Y``.

    The ramp of a source over the snapshots l is z**l, z = exp(2j*pi*freq),
    taken as running products of z: one cos and one sin per trial and
    source, not one per snapshot.
    """
    src_signals = np.empty(freq.shape + (Y.shape[-1],), dtype=complex)    # Doppler ramps
    src_signals[..., 0] = 1.0
    src_signals[..., 1:] = np.exp(2j * np.pi * freq)[..., None]
    np.cumprod(src_signals, axis=-1, out=src_signals)
    # complex products round differently with swapped operands: keep amps first
    np.multiply(amps[:, :, None], src_signals, out=src_signals)
    src_signals *= B
    Y += A_r @ src_signals


def received_batch(scenario: Scenario, T: np.ndarray, theta_t: float | None,
                   trials: int, rng: np.random.Generator) -> np.ndarray:
    """Draw (trials, n_rx, code_len) raw received sample matrices.

    Reflection coefficients are complex Gaussian per trial; each scatterer
    carries a random normalized Doppler ramp across the snapshot index, which
    leaves all second-order statistics unchanged but is included for
    fidelity.  ``theta_t=None`` simulates the no-target hypothesis.
    """
    shape = (trials, scenario.n_rx, scenario.code_len)
    Y = np.empty(shape, dtype=complex)
    A_r, B, amp_scale = _sources(scenario, T, theta_t)
    amps, freq = _draw(Y, math.sqrt(scenario.noise_power / 2.0), amp_scale, rng)
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
        check_detection_settings(self.pfa_target, self.trials)


def check_detection_settings(pfa: float, trials: int) -> None:
    """Refuse a false-alarm rate or trial count detection cannot use."""
    if not 0.0 < pfa < 1.0:          # also refuses NaN and infinities
        raise ModelError(f"pfa must be finite and in (0, 1), got {pfa!r}")
    if trials < 10.0 / pfa:
        raise ModelError(
            f"need at least {int(10.0 / pfa)} trials to calibrate pfa={pfa:g}, got {trials}")


def _block_rng(seed: int, run: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(run, block))))


class _TrialStatistics:
    """Per-trial LRT statistics of one detection point, as a map over blocks.

    Each run (calibration, H0, H1) is cut into blocks of ``_BLOCK_TRIALS``
    trials.  Block b of run r draws its noise, amplitudes and Dopplers from
    its own stream (``_block_rng(seed, r, b)``) on whichever worker of
    ``pool`` runs it into samples of its own, then mixes, quantizes and
    reduces them chunk by chunk and writes its slice of the statistics.
    So the statistics depend on the seed alone, not on the worker count.
    """

    def __init__(self, scenario: Scenario, T: np.ndarray, quant: ScalarQuantizer | None,
                 form: tuple[np.ndarray, np.ndarray, float], seed: int, trials: int,
                 pool: ThreadPoolExecutor):
        self.scenario, self.T, self.quant, self.form = scenario, T, quant, form
        self.seed, self.trials, self.pool = seed, trials, pool

    def run(self, run: int, theta_t: float | None, row_power: float) -> np.ndarray:
        """Statistics of ``trials`` trials of one run (``theta_t=None``: no target)."""
        sc, trials, blk, chunk = self.scenario, self.trials, _BLOCK_TRIALS, _CHUNK_TRIALS
        A_r, B, amp_scale = _sources(sc, self.T, theta_t)
        noise_scale = math.sqrt(sc.noise_power / 2.0)
        G, w, gamma = self.form
        out = np.empty(trials)

        def block(b):
            a = b * blk
            Y = np.empty((min(blk, trials - a), sc.n_rx, sc.code_len), dtype=complex)
            amps, freq = _draw(Y, noise_scale, amp_scale, _block_rng(self.seed, run, b))
            for c in range(0, Y.shape[0], chunk):
                part = slice(c, c + chunk)
                Yc = Y[part]
                if A_r is not None:
                    _mix(Yc, amps[part], freq[part], A_r, B)
                Yc = quantize_received(Yc, self.quant, row_power)
                out[a + c:a + c + Yc.shape[0]] = lrt_statistics(Yc, G, w, gamma)

        for f in [self.pool.submit(block, b) for b in range(-(-trials // blk))]:
            f.result()
        return out


def simulate_detection(T: np.ndarray, scenario: Scenario, bits: int | str,
                       snr_db: float, pfa: float, trials: int, seed: int) -> DetectionPoint:
    """Monte Carlo detection probability at one SNR.

    The target power is set to snr * noise power; data are synthesized per
    hypothesis, passed through the true quantizer (gain-controlled by the
    model row variance of its own hypothesis), and reduced by the Gaussian
    likelihood-ratio statistic sum_l y^H (R0^-1 - R1^-1) y.  Both the row
    variances and the statistic's low-rank form come from the model
    covariances at the mean target angle (``LowRankCovariances``).  The
    threshold is the empirical (1 - pfa) quantile of an independent
    calibration run; the returned false-alarm rate is measured on a second,
    disjoint run.  Every block of trials draws from its own stream keyed by
    (``seed``, run, block), so the point depends on ``seed`` alone.
    """
    check_detection_settings(pfa, trials)
    sc = replace(scenario, target_power=scenario.noise_power * db_to_linear(snr_db))
    q = quantization_model(bits)
    quant = None if q.ideal else lloyd_max_codebook(int(bits))
    theta = sc.target_mean_angle
    model = low_rank_covariances(sc, T, q, theta)

    pool = ThreadPoolExecutor(_WORKERS)
    try:
        stats = _TrialStatistics(sc, T, quant, model.lrt_form(0, sc.code_len), seed, trials, pool)
        cal = stats.run(_CALIBRATION, None, model.row0)
        h0 = stats.run(_H0, None, model.row0)
        h1 = stats.run(_H1, theta, model.row1[0])
    finally:
        pool.shutdown(cancel_futures=True)
    threshold = float(np.quantile(cal, 1.0 - pfa))

    pd = float(np.mean(h1 > threshold))
    ci = 1.96 * math.sqrt(max(pd * (1.0 - pd), 1.0 / trials) / trials)
    return DetectionPoint(snr_db=snr_db, pd=pd, ci_halfwidth=ci,
                          empirical_pfa=float(np.mean(h0 > threshold)),
                          threshold=threshold, trials=trials)


def detection_curve(T: np.ndarray, scenario: Scenario, bits: int | str,
                    snr_grid_db, pfa: float, trials: int, seed: int) -> DetectionCurve:
    """Sweep ``simulate_detection`` over an SNR grid; point i takes seed + 1000*i."""
    points = [simulate_detection(T, scenario, bits, s, pfa, trials, seed + 1000 * i)
              for i, s in enumerate(snr_grid_db)]
    return DetectionCurve(
        snr_db=np.asarray([p.snr_db for p in points]),
        pd=np.asarray([p.pd for p in points]),
        ci_halfwidth=np.asarray([p.ci_halfwidth for p in points]),
        empirical_pfa=np.asarray([p.empirical_pfa for p in points]),
        pfa_target=pfa, trials=trials, seed=seed, bits=bits)


def sample_h0_covariance_error(scenario: Scenario, T: np.ndarray, bits: int | str,
                               snapshots: int, seed: int) -> float:
    """Relative Frobenius gap between quantized sample and model covariance.

    Draws no-target data, quantizes it, accumulates the per-snapshot sample
    covariance and compares against the per-snapshot model covariance; this
    is the empirical justification of the linearized quantizer model.
    """
    q = quantization_model(bits)
    quant = None if q.ideal else lloyd_max_codebook(int(bits))
    L = scenario.code_len
    trials = max(1, math.ceil(snapshots / L))
    f = low_rank_covariances(scenario, T, q, scenario.target_mean_angle)
    rng = np.random.default_rng(seed)

    n_r = scenario.n_rx
    acc = np.zeros((n_r, n_r), dtype=complex)
    for done in range(0, trials, _COVARIANCE_CHUNK):
        m = min(_COVARIANCE_CHUNK, trials - done)
        Y = quantize_received(received_batch(scenario, T, None, m, rng), quant, f.row0)
        Y = Y.transpose(1, 0, 2).reshape(n_r, -1)           # (n_rx, trials * L)
        acc += Y @ Y.conj().T
    sample_cov = acc / (trials * L)
    # R0 = c0 I + Q (C0 - c0 I) Q^H in the model's steering basis
    Q, k = f.basis[0], f.basis.shape[2]
    model_cov = (f.c0 * np.eye(n_r) + Q @ (f.core0[0] - f.c0 * np.eye(k)) @ Q.conj().T) / L
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
