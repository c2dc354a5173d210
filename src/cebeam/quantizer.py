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
import numbers
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

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


def quantize_values(x: np.ndarray, thresholds: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Map each real value to its level of an odd-symmetric codebook.

    ``thresholds`` ascend and, like ``levels``, are odd-symmetric
    (``levels == -levels[::-1]``), so the middle threshold is 0.  The
    magnitude is looked up among the positive thresholds and the sign copied
    from ``x``.  This equals ``levels[np.searchsorted(thresholds, x)]``
    except at values exactly on a threshold, which occur with probability
    zero for continuous input.
    """
    half = levels.size // 2
    pos_thresholds, pos_levels = thresholds[half:], levels[half:]
    if pos_thresholds.size == 0:         # one bit: no positive threshold
        return np.copysign(pos_levels[0], x)
    mag = np.abs(x)
    idx = np.zeros(mag.shape, dtype=np.uint8)
    for t in pos_thresholds:
        idx += mag > t
    # the magnitudes' array takes the levels; idx < half, so 'clip' never
    # clips, and unlike 'raise' it writes to ``mag`` without a copy of it
    np.take(pos_levels, idx, out=mag, mode="clip")
    return np.copysign(mag, x, out=mag)


def quantize_received(Y: np.ndarray, quantizer: ScalarQuantizer | None,
                      row_power: float) -> np.ndarray:
    """Quantize real and imaginary parts of a received sample matrix.

    Every row (receive antenna) has the complex per-sample variance
    ``row_power``, the model's gain control (``row0`` or ``row1[0]`` of
    ``low_rank_covariances``): the unit-variance codebook is scaled to the
    standard deviation of one real dimension, and the samples are quantized
    as they are.  Any value but one positive, finite number is refused with
    ``ModelError``.  ``quantizer=None`` means ideal conversion and returns
    the input unchanged.

    ``Y`` may carry leading batch dimensions.
    """
    if not (isinstance(row_power, numbers.Real) and 0.0 < row_power < math.inf):
        raise ModelError(f"row power must be one positive, finite number, got {row_power!r}")
    if quantizer is None:
        return Y
    Y = np.ascontiguousarray(Y, dtype=np.complex128)
    scale = math.sqrt(row_power / 2.0)       # standard deviation of one real dimension
    # real and imaginary parts interleave along the last axis of the float64
    # view, so one pass quantizes both
    x = quantize_values(Y.view(np.float64), quantizer.thresholds * scale,
                        quantizer.levels * scale)
    return x.view(np.complex128)
