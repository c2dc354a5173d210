"""Minimum-distortion scalar quantizers for Gaussian input and element-wise
quantization of received sample matrices.

The codebook is designed for a unit-variance real Gaussian source by
Lloyd-Max fixed-point iteration; its measured distortion reproduces the
normalized-MSE table that the linearized receiver model is built on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from ._accel import quantize_values
from .model import ADC_DISTORTION, ModelError

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _phi(x):
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def _cdf(x):
    return 0.5 * (1.0 + special.erf(x / _SQRT2))


@dataclass(frozen=True)
class ScalarQuantizer:
    """Odd-symmetric codebook for a unit-variance real Gaussian source."""

    bits: int
    levels: np.ndarray
    thresholds: np.ndarray

    def __post_init__(self):
        # the quantization kernel reads only the positive half of the codebook
        if (self.thresholds.size != self.levels.size - 1
                or np.any(self.levels != -self.levels[::-1])
                or np.any(self.thresholds != -self.thresholds[::-1])):
            raise ModelError("codebook must be odd-symmetric with one threshold between levels")

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Element-wise nearest-level quantization of real values."""
        return quantize_values(np.asarray(x, dtype=np.float64), self.thresholds, self.levels)

    def distortion(self) -> float:
        """Exact E[(X - Q(X))^2] for X ~ N(0, 1), by per-cell Gaussian moments."""
        edges = np.concatenate(([-np.inf], self.thresholds, [np.inf]))
        a, b = edges[:-1], edges[1:]
        pa, pb = _phi(a), _phi(b)
        ca, cb = _cdf(a), _cdf(b)
        pa[np.isinf(a)] = 0.0
        pb[np.isinf(b)] = 0.0
        apa = np.where(np.isinf(a), 0.0, a) * pa
        bpb = np.where(np.isinf(b), 0.0, b) * pb
        mass = cb - ca
        second = mass + apa - bpb          # integral of x^2 over the cell
        first = pa - pb                    # integral of x over the cell
        return float(np.sum(second - 2.0 * self.levels * first + self.levels ** 2 * mass))


def lloyd_max_codebook(bits: int, tol: float = 1e-10, max_iters: int = 100_000) -> ScalarQuantizer:
    """Minimum-MSE codebook by alternating centroid/midpoint updates.

    Converges for the Gaussian density (log-concave source); the fixed point
    is symmetrized every sweep so the codebook stays exactly odd.
    """
    if bits not in ADC_DISTORTION:
        raise ModelError(f"codebook supported for 1..5 bits, got {bits!r}")
    n_levels = 2 ** bits
    # quantile-spread initialization
    levels = np.sqrt(2.0) * special.erfinv(2.0 * (np.arange(n_levels) + 0.5) / n_levels - 1.0)
    for _ in range(max_iters):
        thresholds = 0.5 * (levels[:-1] + levels[1:])
        edges = np.concatenate(([-np.inf], thresholds, [np.inf]))
        a, b = edges[:-1], edges[1:]
        pa, pb = _phi(a), _phi(b)
        pa[np.isinf(a)] = 0.0
        pb[np.isinf(b)] = 0.0
        mass = _cdf(b) - _cdf(a)
        new_levels = (pa - pb) / mass
        new_levels = 0.5 * (new_levels - new_levels[::-1])   # enforce odd symmetry
        move = np.max(np.abs(new_levels - levels))
        levels = new_levels
        if move < tol:
            thresholds = 0.5 * (levels[:-1] + levels[1:])
            return ScalarQuantizer(bits=bits, levels=levels, thresholds=thresholds)
    raise ModelError(f"codebook iteration did not converge in {max_iters} sweeps")


def quantize_received(Y: np.ndarray, quantizer: ScalarQuantizer | None,
                      row_power: np.ndarray | float | None = None) -> np.ndarray:
    """Quantize real and imaginary parts of a received sample matrix.

    Rows (receive antennas) are scaled to unit variance per real dimension
    before quantization and rescaled after; ``row_power`` is the complex
    per-sample variance of each row (scalar for a uniform array), normally
    taken from the model covariance diagonal.  When omitted it is estimated
    from the samples.  ``quantizer=None`` means ideal conversion and returns
    the input unchanged.  Rows with zero power are passed through unscaled.

    ``Y`` may carry leading batch dimensions; the row axis is ``-2``.
    """
    if quantizer is None:
        return Y
    Y = np.ascontiguousarray(Y, dtype=np.complex128)
    if row_power is None:
        axes = tuple(i for i in range(Y.ndim) if i != Y.ndim - 2)
        row_power = np.mean(np.abs(Y) ** 2, axis=axes)
    scale = np.sqrt(np.maximum(np.asarray(row_power, dtype=float), 0.0) / 2.0)
    scale = np.where(scale > 0.0, scale, 1.0)
    if np.ndim(scale) == 1:
        scale = scale[:, None]
    # real and imaginary parts interleave along the last axis of the float64
    # view, so one pass quantizes both and the row axis is unchanged
    out = quantizer.quantize(Y.view(np.float64) / scale)
    out *= scale
    return out.view(np.complex128)
