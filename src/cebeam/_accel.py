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


def quantize_values(x: np.ndarray, thresholds: np.ndarray,
                    levels: np.ndarray) -> np.ndarray:
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
    if pos_thresholds.size == 0:
        return np.copysign(pos_levels[0], x)
    mag = np.abs(x)
    idx = np.zeros(mag.shape, dtype=np.uint8)
    for t in pos_thresholds:
        idx += mag > t
    del mag                            # free it before the output is allocated
    out = np.asarray(pos_levels[idx])  # a 0-d index gives a scalar
    return np.copysign(out, x, out=out)


def lrt_statistics(Y: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Sum over snapshots of y^H M y for each trial.

    ``Y`` has shape (trials, n_rx, snapshots); ``M`` is Hermitian, so each
    statistic is real: Re(conj(Y) * (M @ Y)) summed, which is the row-wise
    dot product of the float64 views of ``Y`` and ``M @ Y``.
    """
    Y = np.ascontiguousarray(Y, dtype=np.complex128)
    MY = np.matmul(M, Y)
    n = Y.shape[0]
    return np.einsum("ti,ti->t", Y.view(np.float64).reshape(n, -1),
                     MY.view(np.float64).reshape(n, -1))
