"""Reference implementations that the tests compare cebeam against.

None of these runs in a design or an evaluation: each is the slow, direct
form of something the library computes another way (a single-angle steering
vector and pattern, the sign enumeration that the one-bit solver approximates,
the sample covariance that the linearized quantizer model predicts, the exact
law of one-bit samples that it linearizes, the steering Gram experiment over
all trials at once).
"""

from __future__ import annotations

import math

import numpy as np

from cebeam.ce_design import DesignProblem, pattern_terms
from cebeam.model import (ModelError, Scenario, hypothesis_covariances, low_rank_covariances,
                          quantization_model, steering_matrix)
from cebeam.quantizer import lloyd_max_codebook, quantize_received
from cebeam.simulate import lfm_waveforms, received_batch


def steering_vector(theta: float, n: int) -> np.ndarray:
    """Unit-norm response of an n-element half-wavelength ULA toward theta.

    Element m equals (1/sqrt(n)) * exp(-1j*pi*m*sin(theta)); theta is measured
    from broadside, in radians.
    """
    if n < 1:
        raise ModelError(f"array needs at least one element, got {n}")
    m = np.arange(n)
    return np.exp(-1j * np.pi * m * np.sin(theta)) / np.sqrt(n)


def beampattern_power(T: np.ndarray, theta: float) -> float:
    """Transmit power steered toward theta: a^T T T^H a* for the tx steering vector a."""
    a = steering_vector(theta, T.shape[0])
    z = a @ T
    return float(np.real(np.vdot(z, z)))


MAX_EXHAUSTIVE_ENTRIES = 20


def exhaustive_onebit(problem: DesignProblem, n_tx: int, n_rf: int,
                      penalty_orth: float) -> tuple[np.ndarray, float]:
    """Globally optimal one-bit beamformer by sign enumeration.

    Only feasible for n_tx*n_rf <= 20 (2^20 candidates); ties break toward
    the lexicographically smallest sign pattern, bit b of the pattern index
    being entry b in column-major order.
    """
    n = n_tx * n_rf
    if n > MAX_EXHAUSTIVE_ENTRIES:
        raise ModelError(f"{n} one-bit entries means 2^{n} candidates; refusing beyond "
                         f"2^{MAX_EXHAUSTIVE_ENTRIES}")
    scale = 1.0 / np.sqrt(n_tx)

    best_val = np.inf
    best_idx = -1
    chunk = 1 << 14
    total = 1 << n
    bit_id = np.arange(n, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        signs = (((idx[:, None] >> bit_id[None, :]) & 1) * 2 - 1).astype(np.float64)
        Tb = signs.reshape(-1, n_rf, n_tx).transpose(0, 2, 1) * scale   # column-major bits
        mse = np.sum(pattern_terms(Tb, problem)[1] ** 2, axis=-1)
        gram = np.einsum("bnr,bns->brs", Tb, Tb) - problem.eye_rf[None]
        vals = mse + penalty_orth * np.sum(gram ** 2, axis=(1, 2))
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_idx = int(idx[k])

    signs = (((best_idx >> bit_id) & 1) * 2 - 1).astype(np.float64)
    T = signs.reshape((n_tx, n_rf), order="F") * scale
    return T, best_val


# trials per received_batch call when accumulating a sample covariance
_COVARIANCE_CHUNK = 8192


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
    row0 = low_rank_covariances(scenario, T, q, scenario.target_mean_angle).row0
    rng = np.random.default_rng(seed)

    n_r = scenario.n_rx
    acc = np.zeros((n_r, n_r), dtype=complex)
    for done in range(0, trials, _COVARIANCE_CHUNK):
        m = min(_COVARIANCE_CHUNK, trials - done)
        Y = quantize_received(received_batch(scenario, T, None, m, rng), quant, row0)
        Y = Y.transpose(1, 0, 2).reshape(n_r, -1)           # (n_rx, trials * L)
        acc += Y @ Y.conj().T
    sample_cov = acc / (trials * L)
    model_cov = hypothesis_covariances(scenario, T, q, scenario.target_mean_angle).r0 / L
    return float(np.linalg.norm(sample_cov - model_cov) / np.linalg.norm(model_cov))


def one_bit_covariance(scenario: Scenario, T: np.ndarray, theta_t: float | None) -> np.ndarray:
    """Exact E[y y^H] of one-bit samples, averaged over the L snapshots (arcsine law).

    Snapshot l of the unquantized data is circular Gaussian with covariance
    R_l = noise I + sum_k p_k |b_kl|^2 a_k a_k^H: source k (the target first,
    when ``theta_t`` is given) has power p_k, receive steering a_k and
    transmit response b_k = (a_t,k^T T S)_l.  Each real part is quantized to
    c*sign, c^2 = row/pi, with row the row power averaged over the snapshots
    (the model's gain control).  For unit-variance Gaussians
    E[sign(u) sign(v)] = (2/pi) arcsin(corr(u, v)), so with rho_l the
    correlation coefficients of R_l
    E[y_i y_j*] = (4 row/pi^2) mean_l (arcsin Re rho_l,ij + j arcsin Im rho_l,ij),
    and E|y_i|^2 = 2 row/pi.  The linearized model's alpha^2 R + alpha beta
    diag(R) is the first-order term of this series.
    """
    angles = list(scenario.clutter_angles)
    powers = list(scenario.clutter_powers)
    if theta_t is not None:
        angles.insert(0, theta_t)
        powers.insert(0, scenario.target_power)
    S = lfm_waveforms(scenario.n_rf, scenario.code_len)
    n_r = scenario.n_rx
    R = np.zeros((scenario.code_len, n_r, n_r), dtype=complex) + scenario.noise_power * np.eye(n_r)
    for theta, p in zip(angles, powers):
        a = steering_vector(theta, n_r)
        b = steering_vector(theta, scenario.n_tx) @ T @ S            # (L,)
        R += p * np.abs(b)[:, None, None] ** 2 * np.outer(a, a.conj())
    d = np.sqrt(np.real(np.einsum("lii->li", R)))
    rho = R / (d[:, :, None] * d[:, None, :])
    row = float(np.mean(d ** 2))
    arcsin = np.arcsin(np.clip(rho.real, -1.0, 1.0)) + 1j * np.arcsin(np.clip(rho.imag, -1.0, 1.0))
    return 4.0 * row / math.pi ** 2 * arcsin.mean(axis=0)


def steering_gram_errors(n_rx_list, n_clutter: int, trials: int, seed: int) -> np.ndarray:
    """``simulate.steering_crosscorr_experiment`` with every trial's steering built at once.

    Same angle draws and the same einsum layout, so the result is the same
    to the bit; its memory grows with ``trials``.
    """
    rng = np.random.default_rng(seed)
    out = np.empty(len(n_rx_list))
    eye = np.eye(n_clutter + 1)
    for i, n_r in enumerate(n_rx_list):
        angles = rng.uniform(-np.pi / 2, np.pi / 2, size=(trials, n_clutter + 1))
        A = steering_matrix(angles.ravel(), n_r).reshape(n_r, trials, -1).transpose(0, 2, 1)
        grams = np.einsum("rpt,rqt->tpq", A.conj(), A)
        out[i] = np.mean(np.linalg.norm(grams - eye[None], axis=(1, 2)))
    return out
