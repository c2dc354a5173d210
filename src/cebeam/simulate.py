"""End-to-end evaluation: orthogonal waveforms, Monte Carlo detection with a
true few-bit quantizer in the loop, and large-array steering diagnostics.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, partial
from itertools import repeat

import numpy as np

from .model import (ModelError, Scenario, db_to_linear, low_rank_covariances,
                    quantization_model, steering_matrix)
# the dense oracle, under the name perfbench's tracer wraps in this module
from .model import hypothesis_covariances  # noqa: F401
from .quantizer import ScalarQuantizer, lloyd_max_codebook, quantize_received

# Trials per Monte Carlo block.  Block b of run r of a detection curve draws
# from its own stream, SeedSequence(seed, spawn_key=(r, b)), so this constant
# defines the realization of a seed.  There are enough blocks to keep every
# worker busy.
_BLOCK_TRIALS = 512
# Trials per stage chunk: a block draws its noise, and mixes, quantizes and
# reduces its trials, this many at a time, so numpy's temporaries stay small
# enough to be cached.  It changes no result.
_CHUNK_TRIALS = 64
# Trials per steering build in steering_crosscorr_experiment, which bounds its
# memory; it changes no result.
_GRAM_TRIALS = 64
# Most trials a detection run may have.  A run keeps a float64 statistic per
# trial and SNR point, 80 MB a point at the cap; far past it, memory runs out,
# and only after the design.
MAX_TRIALS = 10_000_000
# the runs of a detection curve, numbered as their streams' first spawn key
_CALIBRATION, _H0, _H1 = range(3)
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
    """What one hypothesis's trials draw from (``theta_t=None``: no target), as new objects.

    The sample shape (n_rx, L), the noise scale per real dimension, the
    receive steering ``A_r``, the transmit responses ``B`` and the amplitude
    scales.  The target, when present, is the first source.  The last three
    are ``None`` when there is no source at all.
    """
    shape, noise_scale = (scenario.n_rx, scenario.code_len), math.sqrt(scenario.noise_power / 2.0)
    angles = list(scenario.clutter_angles)
    powers = list(scenario.clutter_powers)
    if theta_t is not None:
        angles.insert(0, theta_t)
        powers.insert(0, scenario.target_power)
    if not angles:
        return shape, noise_scale, None, None, None
    A_r = steering_matrix(np.asarray(angles), scenario.n_rx)
    A_t = steering_matrix(np.asarray(angles), scenario.n_tx)
    B = A_t.T @ (T @ lfm_waveforms(scenario.n_rf, scenario.code_len))   # (n_src, L)
    return shape, noise_scale, A_r, B, np.sqrt(np.asarray(powers) / 2.0)


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
         A_r: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Add the sources' echoes, Doppler-ramped at normalized frequencies ``freq``, to ``Y``.

    Returns ``Y``.  The ramp of a source over the snapshots l is z**l,
    z = exp(2j*pi*freq), taken as running products of z: one cos and one sin
    per trial and source, not one per snapshot.
    """
    src_signals = np.empty(freq.shape + (Y.shape[-1],), dtype=complex)    # Doppler ramps
    src_signals[..., 0] = 1.0
    src_signals[..., 1:] = np.exp(2j * np.pi * freq)[..., None]
    np.cumprod(src_signals, axis=-1, out=src_signals)
    # complex products round differently with swapped operands: keep amps first
    np.multiply(amps[:, :, None], src_signals, out=src_signals)
    src_signals *= B
    Y += A_r @ src_signals
    return Y


def received_batch(scenario: Scenario, T: np.ndarray, theta_t: float | None,
                   trials: int, rng: np.random.Generator) -> np.ndarray:
    """Draw (trials, n_rx, code_len) raw received sample matrices.

    Reflection coefficients are complex Gaussian per trial; each scatterer
    carries a random normalized Doppler ramp across the snapshot index, which
    leaves all second-order statistics unchanged but is included for
    fidelity.  ``theta_t=None`` simulates the no-target hypothesis.

    The detection blocks use the same draw and mix code chunk by chunk; this
    whole batch from one generator is the reference the tests hold them to,
    and the span that perfbench's traced run times as ``simulate.generate``.
    """
    shape, noise_scale, A_r, B, amp_scale = _sources(scenario, T, theta_t)
    Y = np.empty((trials,) + shape, dtype=complex)
    amps, freq = _draw(Y, noise_scale, amp_scale, rng)
    if A_r is not None:
        _mix(Y, amps, freq, A_r, B)
    return Y


@dataclass(frozen=True)
class DetectionPoint:
    """Detection probability at one SNR, and the threshold that fixes its false-alarm rate.

    ``empirical_pfa`` is measured on a no-target run disjoint from the
    calibration (run 1 of the curve's streams), which every point of the
    curve shares.  That run is made on the first read of any point's
    ``empirical_pfa``, once per curve, and each point keeps its value.
    """

    snr_db: float
    pd: float
    ci_halfwidth: float
    threshold: float
    _h0_statistics: Callable[[], np.ndarray] = field(repr=False, compare=False)  # its row of run 1

    @cached_property
    def empirical_pfa(self) -> float:
        return float(np.mean(self._h0_statistics() > self.threshold))


@dataclass
class DetectionCurve:
    """Detection probability against SNR at a calibrated false-alarm rate."""

    snr_db: np.ndarray
    pd: np.ndarray
    ci_halfwidth: np.ndarray
    pfa_target: float
    trials: int
    _points: tuple[DetectionPoint, ...] = field(default=(), repr=False, compare=False)

    @property
    def empirical_pfa(self) -> np.ndarray:
        return np.asarray([p.empirical_pfa for p in self._points])


def check_detection_settings(pfa: float, trials: int) -> None:
    """Refuse a false-alarm rate or trial count detection cannot use."""
    if not 0.0 < pfa < 1.0:          # also refuses NaN and infinities
        raise ModelError(f"pfa must be finite and in (0, 1), got {pfa!r}")
    if not 10.0 / pfa <= trials <= MAX_TRIALS:
        raise ModelError(f"trials must be at least {math.ceil(10.0 / pfa)} to calibrate "
                         f"pfa={pfa:g} and at most {MAX_TRIALS}, got {trials}")


def _block_rng(seed: int, run: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(run, block))))


def lrt_statistics(Y: np.ndarray, G: np.ndarray, w: np.ndarray, gamma: float) -> np.ndarray:
    """Sum over snapshots of y^H M y for each trial, M = gamma*I + G^H diag(w) G.

    ``Y`` has shape (trials, n_rx, snapshots) and ``G`` (rank, n_rx), with
    ``w`` real (``LowRankCovariances.lrt_form``), so each statistic is real:
    gamma*||Y_t||^2 + sum_k w_k ||(G Y_t)_k||^2, each squared norm a row-wise
    dot product of float64 views.
    """
    Y = np.ascontiguousarray(Y, dtype=np.complex128)
    GY = G @ Y
    n = Y.shape[0]
    gy = GY.view(np.float64).reshape(n, G.shape[0], -1)
    stats = np.einsum("tki,tki->tk", gy, gy) @ w
    y = Y.view(np.float64).reshape(n, -1)
    stats += gamma * np.einsum("ti,ti->t", y, y)
    return stats


@cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's Monte Carlo worker pool of ``workers`` threads, made on first use."""
    return ThreadPoolExecutor(workers)


def _run_statistics(sources: tuple, quant: ScalarQuantizer | None,
                    forms: list[tuple[np.ndarray, np.ndarray, float]], seed: int, trials: int,
                    run: int, row_power: float | list[float],
                    gains: list[float] | None = None) -> np.ndarray:
    """LRT statistics (points, trials) of one run drawn from ``sources`` (``_sources``).

    The run (calibration, H0, H1) is cut into blocks of ``_BLOCK_TRIALS``
    trials, mapped over the pool of ``_WORKERS`` threads.  Block b of run r
    draws its noise, amplitudes and Dopplers from its own stream
    (``_block_rng(seed, r, b)``) into samples of its own, then mixes,
    quantizes and reduces them chunk by chunk and writes its slice of every
    row.  So the statistics depend on the seed alone, not on the worker
    count.

    A no-target run (``gains=None``) is quantized once, with the one
    ``row_power``, and reduced with every point's form.  A target run mixes
    the clutter once; for point i it adds the target's echo (the first
    source) scaled by ``gains[i]``, quantizes with ``row_power[i]`` and
    reduces with ``forms[i]``.
    """
    (shape, noise_scale, A_r, B, amp_scale), blk, chunk = sources, _BLOCK_TRIALS, _CHUNK_TRIALS
    echo = 0 if gains is None else 1            # the sources mixed apart, before the clutter
    out = np.empty((len(forms), trials))

    def block(b):
        a = b * blk
        Y = np.empty((min(blk, trials - a),) + shape, dtype=complex)
        amps, freq = _draw(Y, noise_scale, amp_scale, _block_rng(seed, run, b))
        for c in range(0, Y.shape[0], chunk):
            part = slice(c, c + chunk)
            Yc = Y[part]
            if A_r is not None and A_r.shape[1] > echo:
                _mix(Yc, amps[part, echo:], freq[part, echo:], A_r[:, echo:], B[echo:])
            if gains is None:
                samples = repeat(quantize_received(Yc, quant, row_power))
            else:   # point i adds the target's echo, scaled by gains[i], to a copy
                samples = (quantize_received(_mix(Yc.copy(), g * amps[part, :1], freq[part, :1],
                                                  A_r[:, :1], B[:1]), quant, p)
                           for g, p in zip(gains, row_power))
            for i, form in enumerate(forms):     # no name keeps a point's samples past it
                out[i, a + c:a + c + Yc.shape[0]] = lrt_statistics(next(samples), *form)

    # consumed in order: the first block error is raised, and unstarted blocks are cancelled
    for _ in _pool(_WORKERS).map(block, range(-(-trials // blk))):
        pass
    return out


def scenario_at_snr(scenario: Scenario, snr_db: float) -> Scenario:
    """``scenario`` with the target power set to snr * noise power, validated.

    The one SNR check: it refuses a power that is not finite and positive (nan, +-inf
    or 1e308 dB, or -4000 dB, which underflows to 0 and would make every statistic 0).
    """
    power = scenario.noise_power * db_to_linear(snr_db)
    if not 0.0 < power < math.inf:
        raise ModelError(f"SNR {snr_db!r} dB gives no finite, positive target power")
    return replace(scenario, target_power=power)


def simulate_detection(T: np.ndarray, scenario: Scenario, bits: int | str,
                       snr_db: float, pfa: float, trials: int, seed: int) -> DetectionPoint:
    """Monte Carlo detection probability at one SNR: the one-point ``detection_curve``."""
    return detection_curve(T, scenario, bits, (snr_db,), pfa, trials, seed)._points[0]


def detection_curve(T: np.ndarray, scenario: Scenario, bits: int | str,
                    snr_grid_db, pfa: float, trials: int, seed: int) -> DetectionCurve:
    """Monte Carlo detection probability over an SNR grid, from one realization.

    Point i sets the target power P_i to snr_i * noise power.  Data pass
    through the true quantizer (gain-controlled by the model row variance of
    their hypothesis) and are reduced by the Gaussian likelihood-ratio
    statistic sum_l y^H (R0^-1 - R1^-1) y; the row variances and each
    point's low-rank form of it come from the model covariances at the mean
    target angle (``LowRankCovariances``).

    The curve makes three runs, whatever its length.  The no-target data do
    not depend on the SNR: the calibration run (run 0) is drawn and
    quantized once, and point i's threshold is the (1 - pfa) quantile of its
    statistics on it.  The target run (run 2) draws the target at P_0, and
    point i measures pd on it with the echo scaled by sqrt(P_i / P_0):
    common random numbers, so the points are correlated, each with its own
    law.  The no-target run that measures the false-alarm rates (run 1) is
    made only on the first read of a point's ``empirical_pfa``, from the
    calibration's sources.  Every block of trials draws from its own stream
    keyed by (``seed``, run, block), so the curve depends on ``seed`` alone,
    whenever each run is made; its point 0 is ``simulate_detection``'s.
    """
    check_detection_settings(pfa, trials)
    snrs = list(snr_grid_db)
    scs = [scenario_at_snr(scenario, s) for s in snrs]
    if not scs:
        raise ModelError("a detection curve needs at least one SNR point")
    q = quantization_model(bits)
    quant = None if q.ideal else lloyd_max_codebook(int(bits))
    models = [low_rank_covariances(sc, T, q, scenario.target_mean_angle) for sc in scs]
    ref = scs[0]                    # the target is drawn at point 0's power
    h0, row0 = _sources(ref, T, None), models[0].row0
    stats = partial(_run_statistics, quant=quant, seed=seed, trials=trials,
                    forms=[m.lrt_form(0, scenario.code_len) for m in models])
    calibration = stats(h0, run=_CALIBRATION, row_power=row0)
    thresholds = [float(np.quantile(c, 1.0 - pfa)) for c in calibration]
    h1 = stats(_sources(ref, T, scenario.target_mean_angle), run=_H1,
               row_power=[m.row1[0] for m in models],
               gains=[math.sqrt(sc.target_power / ref.target_power) for sc in scs])
    h0_run = cache(partial(stats, h0, run=_H0, row_power=row0))
    points = []
    for i, (snr, threshold) in enumerate(zip(snrs, thresholds)):
        pd = float(np.mean(h1[i] > threshold))
        ci = 1.96 * math.sqrt(max(pd * (1.0 - pd), 1.0 / trials) / trials)
        points.append(DetectionPoint(snr_db=snr, pd=pd, ci_halfwidth=ci,
                                     threshold=threshold, _h0_statistics=lambda i=i: h0_run()[i]))
    return DetectionCurve(
        snr_db=np.asarray([p.snr_db for p in points]),
        pd=np.asarray([p.pd for p in points]),
        ci_halfwidth=np.asarray([p.ci_halfwidth for p in points]),
        pfa_target=pfa, trials=trials, _points=tuple(points))


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
    errors = np.empty(trials)
    for i, n_r in enumerate(n_rx_list):
        angles = rng.uniform(-np.pi / 2, np.pi / 2, size=(trials, n_clutter + 1))
        for a in range(0, trials, _GRAM_TRIALS):
            part = angles[a:a + _GRAM_TRIALS]
            # (n_r, n_clutter + 1, trials), strided as the broadcast it
            # replaces, so that einsum sums in the same order
            A = steering_matrix(part.ravel(), n_r).reshape(n_r, len(part), -1).transpose(0, 2, 1)
            grams = np.einsum("rpt,rqt->tpq", A.conj(), A)
            errors[a:a + len(part)] = np.linalg.norm(grams - eye[None], axis=(1, 2))
        out[i] = np.mean(errors)
    return out
