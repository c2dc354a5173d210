"""Hot numeric kernels of the Monte Carlo detection loop, in plain numpy.

Monte Carlo detection spends nearly all of its time quantizing large sample
batches and reducing per-trial detection statistics.  Both kernels work on
the float64 view of complex data, so the real and imaginary parts are
handled in one pass, and both are deterministic run to run.
"""

from __future__ import annotations

import numpy as np


def using_numba() -> bool:
    """Always False: every kernel is numpy (kept for artifact provenance)."""
    return False


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
    mag = np.abs(x)
    idx = np.zeros(mag.shape, dtype=np.uint8)
    for t in pos_thresholds:
        idx += mag > t
    # the magnitudes' array takes the levels; idx < half, so 'clip' never
    # clips, and unlike 'raise' it writes to ``mag`` without a copy of it
    np.take(pos_levels, idx, out=mag, mode="clip")
    return np.copysign(mag, x, out=mag)


def lrt_statistics(Y: np.ndarray, G: np.ndarray, w: np.ndarray, gamma: float) -> np.ndarray:
    """Sum over snapshots of y^H M y for each trial, M = gamma*I + G^H diag(w) G.

    ``Y`` has shape (trials, n_rx, snapshots) and ``G`` (rank, n_rx), with
    ``w`` real (``LowRankCovariances.lrt_form``), so each statistic is real:
    gamma*||Y_t||^2 + sum_k w_k ||(G Y_t)_k||^2, each squared norm a row-wise
    dot product of float64 views; the first term is skipped when gamma is 0.
    """
    Y = np.ascontiguousarray(Y, dtype=np.complex128)
    GY = G @ Y
    n = Y.shape[0]
    gy = GY.view(np.float64).reshape(n, G.shape[0], -1)
    stats = np.einsum("tki,tki->tk", gy, gy) @ w
    if gamma != 0.0:
        y = Y.view(np.float64).reshape(n, -1)
        stats += gamma * np.einsum("ti,ti->t", y, y)
    return stats
