"""Minimum-distortion scalar quantizers for Gaussian input and element-wise
quantization of received sample matrices.

The codebook is designed for a unit-variance real Gaussian source by
Lloyd-Max fixed-point iteration; its measured distortion reproduces the
normalized-MSE table that the linearized receiver model is built on.  The
Gaussian cdf and quantiles come from the standard library (``math.erf``,
``statistics.NormalDist``): a codebook has at most 33 cell edges, so the
module needs no special-function library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from ._accel import quantize_values
from .model import ADC_DISTORTION, ModelError

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_erf = np.vectorize(math.erf, otypes=[float])


def _phi(x):
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def _cdf(x):
    return 0.5 * (1.0 + _erf(x / _SQRT2))


def _cells(thresholds: np.ndarray):
    """Cell edges a and b, the Gaussian density at them (0 at +-inf) and the cell masses."""
    edges = np.concatenate(([-np.inf], thresholds, [np.inf]))
    a, b = edges[:-1], edges[1:]
    pa, pb = _phi(a), _phi(b)
    pa[np.isinf(a)] = 0.0
    pb[np.isinf(b)] = 0.0
    return a, b, pa, pb, _cdf(b) - _cdf(a)


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

    def distortion(self) -> float:
        """Exact E[(X - Q(X))^2] for X ~ N(0, 1), by per-cell Gaussian moments."""
        a, b, pa, pb, mass = _cells(self.thresholds)
        apa = np.where(np.isinf(a), 0.0, a) * pa
        bpb = np.where(np.isinf(b), 0.0, b) * pb
        second = mass + apa - bpb          # integral of x^2 over the cell
        first = pa - pb                    # integral of x over the cell
        return float(np.sum(second - 2.0 * self.levels * first + self.levels ** 2 * mass))


# Lloyd-Max stops once no level moves by more than this, or fails after this
# many sweeps.
_LLOYD_TOL = 1e-10
_LLOYD_MAX_ITERS = 100_000


def lloyd_max_codebook(bits: int) -> ScalarQuantizer:
    """Minimum-MSE codebook by alternating centroid/midpoint updates.

    Converges for the Gaussian density (log-concave source); the fixed point
    is symmetrized every sweep so the codebook stays exactly odd.
    """
    if bits not in ADC_DISTORTION:
        raise ModelError(f"codebook supported for 1..5 bits, got {bits!r}")
    n_levels = 2 ** bits
    # quantile-spread initialization
    normal = NormalDist()
    levels = np.array([normal.inv_cdf((i + 0.5) / n_levels) for i in range(n_levels)])
    for _ in range(_LLOYD_MAX_ITERS):
        _, _, pa, pb, mass = _cells(0.5 * (levels[:-1] + levels[1:]))
        new_levels = (pa - pb) / mass
        new_levels = 0.5 * (new_levels - new_levels[::-1])   # enforce odd symmetry
        move = np.max(np.abs(new_levels - levels))
        levels = new_levels
        if move < _LLOYD_TOL:
            thresholds = 0.5 * (levels[:-1] + levels[1:])
            return ScalarQuantizer(bits=bits, levels=levels, thresholds=thresholds)
    raise ModelError(f"codebook iteration did not converge in {_LLOYD_MAX_ITERS} sweeps")


def quantize_received(Y: np.ndarray, quantizer: ScalarQuantizer | None,
                      row_power: np.ndarray | float) -> np.ndarray:
    """Quantize real and imaginary parts of a received sample matrix.

    Rows (receive antennas) are scaled to unit variance per real dimension
    before quantization and rescaled after; ``row_power`` is the complex
    per-sample variance of each row (scalar for a uniform array), taken from
    the model covariance diagonal.  ``quantizer=None`` means ideal
    conversion and returns the input unchanged.  Rows with zero power are
    passed through unscaled.

    ``Y`` may carry leading batch dimensions; the row axis is ``-2``.
    """
    if quantizer is None:
        return Y
    Y = np.ascontiguousarray(Y, dtype=np.complex128)
    # per-row standard deviation of one real dimension; 1 for a row without power
    scale = np.sqrt(np.maximum(np.asarray(row_power, dtype=float), 0.0) / 2.0)
    scale = np.where(scale > 0.0, scale, 1.0)
    if np.ndim(scale) == 1:
        scale = scale[:, None]
    # real and imaginary parts interleave along the last axis of the float64
    # view, so one pass quantizes both and the row axis is unchanged
    y = Y.view(np.float64)
    if quantizer.levels.size == 2:   # y / scale has y's sign; +-level * scale is exact
        return np.copysign(quantizer.levels[1] * scale, y).view(np.complex128)
    x = quantize_values(y / scale, quantizer.thresholds, quantizer.levels)
    x *= scale
    return x.view(np.complex128)
