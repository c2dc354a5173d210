"""End-to-end evaluation: orthogonal waveforms, Monte Carlo detection with a
true few-bit quantizer in the loop, large-array steering diagnostics, and an
empirical check of the linearized quantization model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._accel import lrt_statistics
from .model import (ModelError, QuantizationModel, Scenario, hypothesis_covariances,
                    quantization_model, steering_matrix, steering_vector,
                    beampattern_power, beampattern_powers)
from .quantizer import ScalarQuantizer, lloyd_max_codebook, quantize_received

DEFAULT_BATCH = 8192


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


def model_row_power(scenario: Scenario, T: np.ndarray, theta_t: float | None) -> float:
    """Per-snapshot, per-antenna received variance before quantization.

    Uniform across a ULA; ``theta_t=None`` gives the no-target value.
    """
    phi_c = beampattern_powers(T, scenario.clutter_angles) if scenario.n_clutter else np.zeros(0)
    power = float(np.sum(scenario.clutter_powers * phi_c)) / scenario.n_rx + scenario.noise_power
    if theta_t is not None:
        power += scenario.target_power * beampattern_power(T, theta_t) / scenario.n_rx
    return power


def received_batch(scenario: Scenario, T: np.ndarray, theta_t: float | None,
                   trials: int, rng: np.random.Generator,
                   doppler: bool = True) -> np.ndarray:
    """Draw (trials, n_rx, code_len) raw received sample matrices.

    Reflection coefficients are complex Gaussian per trial; each scatterer
    carries a random normalized Doppler ramp across the snapshot index, which
    leaves all second-order statistics unchanged but is included for
    fidelity.  ``theta_t=None`` simulates the no-target hypothesis.
    """
    S = lfm_waveforms(scenario.n_rf, scenario.code_len)
    sources = list(scenario.clutter_angles)
    powers = list(scenario.clutter_powers)
    if theta_t is not None:
        sources.insert(0, theta_t)
        powers.insert(0, scenario.target_power)
    n_src = len(sources)
    L, n_r = scenario.code_len, scenario.n_rx

    # draw order (noise real block, noise imaginary block, amplitude real and
    # imaginary parts, Doppler frequencies) fixes the realization for a seed
    Y = np.empty((trials, n_r, L), dtype=complex)
    noise_scale = math.sqrt(scenario.noise_power / 2.0)
    draw = rng.standard_normal((trials, n_r, L))
    np.multiply(draw, noise_scale, out=Y.real)
    rng.standard_normal(out=draw)
    np.multiply(draw, noise_scale, out=Y.imag)
    del draw
    if n_src == 0:
        return Y

    A_r = steering_matrix(np.asarray(sources), n_r)
    A_t = steering_matrix(np.asarray(sources), scenario.n_tx)
    B = A_t.T @ (T @ S)                                  # (n_src, L) tx responses

    amps = (rng.standard_normal((trials, n_src)) + 1j * rng.standard_normal((trials, n_src)))
    amps *= np.sqrt(np.asarray(powers) / 2.0)
    if doppler:
        freq = rng.uniform(0.0, 1.0, size=(trials, n_src))
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


def _with_target_power(scenario: Scenario, target_power: float) -> Scenario:
    return Scenario(
        n_tx=scenario.n_tx, n_rx=scenario.n_rx, n_rf=scenario.n_rf,
        code_len=scenario.code_len, target_mean_angle=scenario.target_mean_angle,
        target_uncertainty=scenario.target_uncertainty,
        target_grid_spacing=scenario.target_grid_spacing,
        target_power=target_power, clutter_angles=scenario.clutter_angles.copy(),
        clutter_powers=scenario.clutter_powers.copy(), noise_power=scenario.noise_power)


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
    if trials < 10.0 / pfa:
        raise ModelError(
            f"need at least {int(10.0 / pfa)} trials to calibrate pfa={pfa:g}, got {trials}")
    sc = _with_target_power(scenario, scenario.noise_power * 10.0 ** (snr_db / 10.0))
    q = quantization_model(bits)
    quant = None if q.ideal else lloyd_max_codebook(int(bits))
    theta = sc.target_mean_angle

    cov = hypothesis_covariances(sc, T, q, theta)
    L = sc.code_len
    M = np.linalg.inv(cov.r0 / L) - np.linalg.inv(cov.r1 / L)
    M = 0.5 * (M + M.conj().T)

    p0 = model_row_power(sc, T, None)
    p1 = model_row_power(sc, T, theta)

    rng = np.random.default_rng(seed)

    def stats(theta_t, row_power, n):
        out = np.empty(n)
        done = 0
        while done < n:
            m = min(batch_size, n - done)
            # nested so that no batch-sized array outlives its step
            out[done:done + m] = lrt_statistics(
                quantize_received(received_batch(sc, T, theta_t, m, rng), quant, row_power), M)
            done += m
        return out

    cal = stats(None, p0, trials)
    threshold = float(np.quantile(cal, 1.0 - pfa))
    h0 = stats(None, p0, trials)
    h1 = stats(theta, p1, trials)

    pd = float(np.mean(h1 > threshold))
    ci = 1.96 * math.sqrt(max(pd * (1.0 - pd), 1.0 / trials) / trials)
    return DetectionPoint(snr_db=snr_db, pd=pd, ci_halfwidth=ci,
                          empirical_pfa=float(np.mean(h0 > threshold)),
                          threshold=threshold, trials=trials)


def detection_curve(T: np.ndarray, scenario: Scenario, bits: int | str,
                    snr_grid_db, pfa: float, trials: int, seed: int,
                    batch_size: int = DEFAULT_BATCH) -> DetectionCurve:
    """Sweep ``simulate_detection`` over an SNR grid with per-point seed offsets."""
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
