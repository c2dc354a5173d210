"""One-bit beamformer design: every transmit entry is +/-1/sqrt(N_t).

The binary constraint is swapped for an exact-penalty continuous problem on
the box [-1/sqrt(N_t), 1/sqrt(N_t)]^(N_t*N_rf): an auxiliary ball-constrained
vector couples to t through t^T v = N_rf, the coupling moves into the
objective with weight rho, and the auxiliary maximizer has the closed form
v = sqrt(N_rf) t / ||t||.  The remaining smooth box-constrained problem is
solved with a Nesterov-style projected gradient and backtracking line search;
growing rho drives |t_i| to the box walls, and the final iterate is rounded
to exact signs.

Vectors use column-major (Fortran) layout: entry (j-1)*N_t + i is T[i, j].

The per-design constants (the profile's steering matrix A and its conjugate,
the levels) live in the ``ce_design.DesignProblem`` that ``nesterov_epm``
builds once per run.  Every point the solver visits (the extrapolated point,
each backtracking candidate) is evaluated once against it, into an
``EpmPoint``: the pattern terms, ||t|| and T^T T - I.  The objective at any
penalties and the gradient are both assembled from those terms, so a
momentum reset or a penalty bump reuses them; ``epm_objective`` and
``epm_gradient`` are thin wrappers over the same evaluation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .ce_design import DesignProblem, design_problem, pattern_terms
from .model import ModelError
from .power_alloc import PowerProfile


class DegenerateIterateError(ModelError):
    """The iterate collapsed to zero, leaving the update direction undefined."""


class LineSearchStallError(ModelError):
    """Backtracking could not find a decreasing step."""


# Exact-penalty continuation: the orthogonality and binary-gap penalties
# start at their INIT values and both grow, each by its GROWTH factor, after
# every PENALTY_PERIOD iterations.
PENALTY_ORTH_INIT, PENALTY_ORTH_GROWTH = 0.01, 1.5
PENALTY_BIN_INIT, PENALTY_BIN_GROWTH = 0.02, 1.3
PENALTY_PERIOD = 50


@dataclass
class OneBitParams:
    """Stopping rule of the Nesterov-EPM loop."""

    max_iters: int = 1500
    tol: float = 1e-4            # on the gradient norm

    def __post_init__(self):
        if self.max_iters < 1 or not (math.isfinite(self.tol) and self.tol > 0):
            raise ModelError(f"max_iters >= 1 and a finite tol > 0 required, "
                             f"got {self.max_iters} and {self.tol}")


@dataclass
class EpmTrace:
    objective: np.ndarray
    grad_norm: np.ndarray
    binary_gap: np.ndarray       # N_rf - sqrt(N_rf) * ||t||
    penalty_orth: np.ndarray
    penalty_bin: np.ndarray
    iterations: int = 0
    converged: bool = False
    momentum_resets: int = 0
    halvings: int = 0            # backtracking step halvings
    wall_time_s: float = 0.0


def box_project(t: np.ndarray, n_tx: int) -> np.ndarray:
    """Componentwise clamp onto [-1/sqrt(n_tx), 1/sqrt(n_tx)]."""
    bound = 1.0 / math.sqrt(n_tx)
    return np.minimum(np.maximum(t, -bound), bound)


@dataclass(slots=True, eq=False)
class EpmPoint:
    """One point of the exact-penalty problem, evaluated once.

    ``T`` is ``t`` as an (n_tx x n_rf) matrix, ``Z`` and ``gaps`` its
    pattern terms, ``norm`` = ||t||, ``gram`` = T^T T - I, and ``mse``,
    ``binary_gap`` = N_rf - sqrt(N_rf) ||t|| and ``orth`` = ||gram||_F^2 the
    three cost terms.  The objective and the gradient at any penalties come
    from these and conj(A).
    """

    t: np.ndarray
    T: np.ndarray
    Z: np.ndarray
    gaps: np.ndarray
    norm: float
    gram: np.ndarray
    mse: float
    binary_gap: float
    orth: float

    def objective(self, penalty_orth: float, penalty_bin: float) -> float:
        """Pattern-matching cost + binary-gap penalty + orthogonality penalty."""
        return self.mse + penalty_bin * self.binary_gap + penalty_orth * self.orth

    def gradient(self, problem: DesignProblem, penalty_orth: float,
                 penalty_bin: float) -> np.ndarray:
        """Exact gradient of ``objective`` (column-major layout)."""
        if self.norm == 0.0:
            raise DegenerateIterateError("gradient undefined at t = 0")
        # (g_pattern + g_bin) + g_orth, bit for bit: g_bin's array takes both sums
        g = np.multiply(-penalty_bin * math.sqrt(self.T.shape[1]) / self.norm, self.T)
        g += (problem.A_conj @ ((4.0 * self.gaps)[:, None] * self.Z)).real
        g += np.multiply(4.0 * penalty_orth, self.T) @ self.gram
        return g.reshape(-1, order="F")


def epm_point(t: np.ndarray, problem: DesignProblem, n_tx: int, n_rf: int) -> EpmPoint:
    """Evaluate the column-major vector ``t`` once."""
    t = np.asarray(t, float).reshape(-1)
    T = t.reshape((n_tx, n_rf), order="F")
    Z, gaps = pattern_terms(T, problem)
    norm = math.sqrt(t.dot(t))                  # np.linalg.norm(t)
    gram = T.T @ T - problem.eye_rf
    return EpmPoint(t, T, Z, gaps, norm, gram, float(np.add.reduce(np.square(gaps))),
                    n_rf - math.sqrt(n_rf) * norm, float(np.add.reduce(np.square(gram), None)))


def epm_objective(t: np.ndarray, profile: PowerProfile, n_tx: int, n_rf: int,
                  penalty_orth: float, penalty_bin: float) -> float:
    """Pattern-matching cost + binary-gap penalty + orthogonality penalty."""
    problem = design_problem(profile, n_tx, n_rf)
    return epm_point(t, problem, n_tx, n_rf).objective(penalty_orth, penalty_bin)


def epm_gradient(t: np.ndarray, profile: PowerProfile, n_tx: int, n_rf: int,
                 penalty_orth: float, penalty_bin: float) -> np.ndarray:
    """Exact gradient of ``epm_objective`` (column-major layout).

    The quartic pattern term differentiates to sum_p 4(q_p - level_p) Phi_p t
    with symmetric per-angle quadratic forms Phi_p, evaluated through the
    rank-one a_p structure so the Kronecker matrices are never materialized.
    """
    problem = design_problem(profile, n_tx, n_rf)
    return epm_point(t, problem, n_tx, n_rf).gradient(problem, penalty_orth, penalty_bin)


def round_to_signs(t: np.ndarray, n_tx: int, n_rf: int) -> np.ndarray:
    """Nearest one-bit beamformer; zeros round up."""
    T = np.asarray(t, float).reshape((n_tx, n_rf), order="F")
    return np.where(T >= 0.0, 1.0, -1.0) / np.sqrt(n_tx)


def nesterov_epm(t0: np.ndarray, profile: PowerProfile, n_tx: int, n_rf: int,
                 params: OneBitParams) -> tuple[np.ndarray, EpmTrace]:
    """Accelerated projected-gradient minimization of the exact-penalty cost.

    Momentum follows tau' = (1 + sqrt(1 + 4 tau^2))/2 with extrapolation
    weight (tau - 1)/tau'; each step backtracks from unit stepsize with an
    Armijo test, and any step that fails to decrease the objective from the
    current iterate is retried without momentum (tau resets to 1).  Returns
    the sign-rounded one-bit beamformer and the iteration trace.
    """
    t = box_project(np.asarray(t0, float).reshape(-1).copy(), n_tx)
    if np.linalg.norm(t) == 0.0:
        raise DegenerateIterateError("starting point must be nonzero")
    if t.size != n_tx * n_rf:
        raise ModelError(f"t0 has {t.size} entries, expected {n_tx * n_rf}")

    pen_o, pen_b = PENALTY_ORTH_INIT, PENALTY_BIN_INIT
    problem = design_problem(profile, n_tx, n_rf)
    point = lambda v: epm_point(v, problem, n_tx, n_rf)

    tau = 1.0
    x = point(t)                                 # the incumbent
    t_prev = t.copy()
    f_cur = x.objective(pen_o, pen_b)
    hist_f, hist_g, hist_gap, hist_po, hist_pb = [], [], [], [], []
    resets = 0
    halvings = 0
    converged = False
    started = time.perf_counter()

    def backtrack(base: EpmPoint, f_base: float, g_base: np.ndarray):
        nonlocal halvings
        mu = 1.0
        for _ in range(50):
            cand = box_project(base.t - mu * g_base, n_tx)
            delta = cand - base.t
            if not delta.any():
                return base, f_base, True       # projection fixed point
            x_cand = point(cand)
            f_cand = x_cand.objective(pen_o, pen_b)
            if f_cand <= f_base + 1e-4 * float(g_base @ delta):
                return x_cand, f_cand, False
            mu *= 0.5
            halvings += 1
        raise LineSearchStallError(
            f"no decreasing step after 50 halvings (|g|={np.linalg.norm(g_base):.3e}, "
            f"f={f_base:.6e}, pen_orth={pen_o:.3g}, pen_bin={pen_b:.3g})")

    for it in range(1, params.max_iters + 1):
        t = x.t
        tau_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * tau * tau))
        w = t + (tau - 1.0) / tau_next * (t - t_prev)
        w = box_project(w, n_tx)
        x_w = x if w.dot(w) == 0.0 else point(w)
        x_new, f_new, fixed = backtrack(x_w, x_w.objective(pen_o, pen_b),
                                        x_w.gradient(problem, pen_o, pen_b))

        if f_new > f_cur:
            # extrapolation overshoots: plain step from the incumbent
            x_new, f_new, fixed = backtrack(x, f_cur, x.gradient(problem, pen_o, pen_b))
            tau_next = 1.0
            resets += 1

        t_prev, x = t, x_new
        f_cur = min(f_new, f_cur) if fixed else f_new
        tau = tau_next

        g = x.gradient(problem, pen_o, pen_b)
        gnorm = math.sqrt(g.dot(g))
        hist_f.append(f_cur)
        hist_g.append(gnorm)
        hist_gap.append(x.binary_gap)
        hist_po.append(pen_o)
        hist_pb.append(pen_b)

        if gnorm <= params.tol:
            converged = True
            break
        if fixed and not (x.t - t_prev).any():
            converged = True                     # locked on a box vertex set
            break
        if it % PENALTY_PERIOD == 0:
            pen_o *= PENALTY_ORTH_GROWTH
            pen_b *= PENALTY_BIN_GROWTH
            f_cur = x.objective(pen_o, pen_b)

    trace = EpmTrace(
        objective=np.asarray(hist_f), grad_norm=np.asarray(hist_g),
        binary_gap=np.asarray(hist_gap), penalty_orth=np.asarray(hist_po),
        penalty_bin=np.asarray(hist_pb), iterations=len(hist_f),
        converged=converged, momentum_resets=resets, halvings=halvings,
        wall_time_s=time.perf_counter() - started)
    return round_to_signs(x.t, n_tx, n_rf), trace
