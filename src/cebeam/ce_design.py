"""Stage 2: synthesize a unit-modulus beamformer whose pattern matches the
stage-1 power profile, with a growing orthogonality penalty.

The quartic matching cost is minimized by a majorize-minimize scheme with a
closed-form per-iteration phase update, accelerated by SQUAREM extrapolation.
Both the plain and accelerated loops never increase the penalized objective
between penalty bumps.

Derivation sketch for the surrogate.  With x = vec(T T^H) the objective
Z(T) = sum_p (phi_p - level_p)^2 + pen * ||T^H T - I||_F^2 is an exact convex
quadratic in x whose curvature is bounded by lam_P = lam_max(G) + pen, where
G[p,q] = |a_p^H a_q|^2 is the Gram of the profile's rank-one pattern
functionals.  Expanding at the iterate X and bounding the quadratic remainder
gives

    Z(T) <= Z(X) + 2 Re<Q(X), TT^H - XX^H> + lam_P ||TT^H - XX^H||_F^2,
    Q(X)  = sum_p (phi_p(X) - level_p) a_p* a_p^T + pen * X X^H.

||TT^H - XX^H||_F <= (smax(T) + smax(X)) ||T - X||_F turns the remainder into
a t-space quadratic, and on the unit-modulus set ||t|| is constant, so one
more linearization yields the closed-form update

    T' = exp(1j * angle((shift * I - Q(X)) X)) / sqrt(N_t),
    shift = lam_max(Q(X)) + k^2 * lam_P / 2,   k = smax(T') + smax(X).

k <= 2 sqrt(N_rf) always holds, which makes the update provably descending;
near-orthonormal iterates admit k ~ 2, so the step first tries that
optimistic shift and falls back to the guaranteed one if the objective fails
to decrease.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .model import ModelError, steering_matrix, unit_modulus
from .power_alloc import PowerProfile


@dataclass
class CeDesignParams:
    penalty_init: float = 0.01
    penalty_growth: float = 1.5
    penalty_period: int = 50
    max_iters: int = 1500
    tol: float = 1e-4            # on ||T_m - T_{m-1}||_F^2
    seed: int = 0

    def __post_init__(self):
        if self.penalty_init <= 0 or self.penalty_growth <= 1 or self.penalty_period < 1:
            raise ModelError("penalty schedule needs init > 0, growth > 1, period >= 1")
        if self.max_iters < 1 or self.tol <= 0:
            raise ModelError("max_iters >= 1 and tol > 0 required")


@dataclass(frozen=True)
class MinorizerState:
    """Quadratic surrogate at the current iterate.

    ``lambda_max`` is the exact top eigenvalue of ``q_matrix`` (equal to the
    top eigenvalue of I (x) q_matrix, so the Kronecker-size matrix is never
    formed); ``gram_lambda`` bounds the curvature of the pattern functionals
    and ``sigma_max`` is the spectral norm of the expansion point.
    """

    q_matrix: np.ndarray
    lambda_max: float
    gram_lambda: float
    penalty: float
    sigma_max: float


@dataclass
class MmTrace:
    """Per-iteration history of one design run."""

    mse: np.ndarray
    objective: np.ndarray
    penalty: np.ndarray
    orth_residual: np.ndarray
    iterations: int = 0
    map_evals: int = 0
    converged: bool = False
    wall_time_s: float = 0.0


@functools.lru_cache(maxsize=32)
def _steering_and_gram(angle_bytes: bytes, n_tx: int) -> tuple[np.ndarray, float]:
    angles = np.frombuffer(angle_bytes)
    A = steering_matrix(angles, n_tx)
    lam = float(np.linalg.eigvalsh(np.abs(A.conj().T @ A) ** 2)[-1]) if angles.size else 0.0
    A.flags.writeable = False          # shared by every caller of the cache
    return A, lam


def profile_steering(profile: PowerProfile, n_tx: int) -> tuple[np.ndarray, float]:
    """Steering matrix of the profile angles and its pattern-Gram top eigenvalue.

    Returns the read-only (n_tx x P) matrix A = [a_1 .. a_P] and lam_max of
    G[p,q] = |a_p^H a_q|^2, built once per (profile angles, n_tx): the design
    loops evaluate them for a fixed profile on every objective call.
    """
    return _steering_and_gram(profile.all_angles().tobytes(), n_tx)


def pattern_terms(T: np.ndarray, profile: PowerProfile) -> tuple[np.ndarray, np.ndarray]:
    """Responses Z = A^T T and pattern gaps sum_r |Z[p, r]|^2 - level_p.

    ``T`` may carry leading batch axes in front of its (n_tx x n_rf) shape;
    Z and the gaps keep them.
    """
    A, _ = profile_steering(profile, T.shape[-2])
    Z = A.T @ T
    return Z, np.sum(np.abs(Z) ** 2, axis=-1) - profile.all_levels()


def beampattern_mse(T: np.ndarray, profile: PowerProfile) -> float:
    """Sum of squared gaps between the achieved and requested pattern levels."""
    return float(np.sum(pattern_terms(T, profile)[1] ** 2))


def orthogonality_residual(T: np.ndarray) -> float:
    gram = T.conj().T @ T
    return float(np.linalg.norm(gram - np.eye(T.shape[1])))


def penalized_objective(T: np.ndarray, profile: PowerProfile, penalty: float) -> float:
    if penalty < 0:
        raise ModelError("penalty must be >= 0")
    return beampattern_mse(T, profile) + penalty * orthogonality_residual(T) ** 2


def minorizer_matrix(T_m: np.ndarray, profile: PowerProfile, penalty: float) -> MinorizerState:
    """Surrogate matrix Q = sum_p (phi_p - level_p) a_p* a_p^T + penalty * T_m T_m^H."""
    A, gram_lambda = profile_steering(profile, T_m.shape[0])
    Q = (A.conj() * pattern_terms(T_m, profile)[1]) @ A.T
    if penalty != 0.0:
        Q = Q + penalty * (T_m @ T_m.conj().T)
    Q = 0.5 * (Q + Q.conj().T)
    # exact extremal eigenvalue: an underestimated shift voids the descent
    # guarantee, so no iterative approximation here
    return MinorizerState(
        q_matrix=Q, lambda_max=float(np.linalg.eigvalsh(Q)[-1]),
        gram_lambda=gram_lambda,
        penalty=penalty,
        sigma_max=float(np.linalg.norm(T_m, 2)))


def mm_map(T_m: np.ndarray, profile: PowerProfile, penalty: float,
           state: MinorizerState | None = None) -> np.ndarray:
    """One closed-form phase update of the fixed-point map.

    New phases are the arguments of (shift*I - Q) T_m applied column by
    column; entries where that product vanishes keep their previous phase.
    An optimistic shift (valid near orthonormal iterates) is tried first and
    replaced by the worst-case one whenever the penalized objective would
    grow, so the map never ascends.
    """
    if state is None:
        state = minorizer_matrix(T_m, profile, penalty)
    lam_p = state.gram_lambda + penalty
    base = penalized_objective(T_m, profile, penalty)
    n_tx, n_rf = T_m.shape
    shifts = (state.lambda_max + 0.5 * (state.sigma_max + 1.05) ** 2 * lam_p,
              state.lambda_max + 2.0 * n_rf * lam_p)
    for shift in shifts:
        T_new = _project_phases((shift * np.eye(n_tx) - state.q_matrix) @ T_m, T_m, n_tx)
        if penalized_objective(T_new, profile, penalty) <= base + 1e-12:
            return T_new
    return T_m


def _project_phases(Z: np.ndarray, fallback: np.ndarray, n_tx: int) -> np.ndarray:
    """Unit-modulus matrix with the phases of Z; zero entries keep the fallback's phase."""
    phases = np.angle(Z)
    dead = np.abs(Z) == 0.0
    if np.any(dead):
        phases[dead] = np.angle(fallback)[dead]
    return unit_modulus(phases, n_tx)


def _run_design(T0: np.ndarray, profile: PowerProfile, params: CeDesignParams,
                accelerated: bool, monitor=None) -> tuple[np.ndarray, MmTrace]:
    n_tx = T0.shape[0]
    penalty = params.penalty_init
    T = T0
    mse_hist, obj_hist, pen_hist, orth_hist = [], [], [], []
    map_evals = 0
    converged = False
    period_max_step = 0.0
    started = time.perf_counter()

    for it in range(1, params.max_iters + 1):
        if accelerated:
            T1 = mm_map(T, profile, penalty)
            T2 = mm_map(T1, profile, penalty)
            map_evals += 2
            Y1 = T1 - T
            Y2 = T2 - T1 - Y1
            n2 = np.linalg.norm(Y2)
            T_new = T2
            if n2 > 0.0:
                kappa = -np.linalg.norm(Y1) / n2
                Z = T - 2.0 * kappa * Y1 + kappa ** 2 * Y2
                T_acc = _project_phases(Z, T, n_tx)
                # the extrapolated point must not undo the two plain steps
                if penalized_objective(T_acc, profile, penalty) <= penalized_objective(T2, profile, penalty):
                    T_new = T_acc
        else:
            T_new = mm_map(T, profile, penalty)
            map_evals += 1

        step = float(np.linalg.norm(T_new - T) ** 2)
        T = T_new
        mse = beampattern_mse(T, profile)
        orth = orthogonality_residual(T)
        mse_hist.append(mse)
        obj_hist.append(mse + penalty * orth ** 2)
        pen_hist.append(penalty)
        orth_hist.append(orth)
        if monitor is not None:
            monitor(it, T)

        # a numerically fixed point (phase wobble at the atan2 rounding floor)
        # stops at once; otherwise convergence needs the iterate to stay
        # within tol for a whole penalty period, so that mid-period plateaus
        # of the continuation are not mistaken for the end
        if step <= 1e-28:
            converged = True
            break
        period_max_step = max(period_max_step, step)
        if it % params.penalty_period == 0:
            if period_max_step <= params.tol:
                converged = True
                break
            period_max_step = 0.0
            penalty *= params.penalty_growth

    trace = MmTrace(
        mse=np.asarray(mse_hist), objective=np.asarray(obj_hist),
        penalty=np.asarray(pen_hist), orth_residual=np.asarray(orth_hist),
        iterations=len(obj_hist), map_evals=map_evals, converged=converged,
        wall_time_s=time.perf_counter() - started)
    return T, trace


def plain_mm(T0: np.ndarray, profile: PowerProfile, params: CeDesignParams,
             monitor=None) -> tuple[np.ndarray, MmTrace]:
    """Unaccelerated fixed-point iteration of the phase-update map."""
    return _run_design(T0, profile, params, accelerated=False, monitor=monitor)


def squarem_accelerated_mm(T0: np.ndarray, profile: PowerProfile, params: CeDesignParams,
                           monitor=None) -> tuple[np.ndarray, MmTrace]:
    """SQUAREM extrapolation of the fixed-point map, two map evaluations per step.

    Each iteration squares through two plain updates, extrapolates with
    kappa = -||Y1|| / ||Y2||, and projects back onto the unit-modulus set.
    When the extrapolated point degrades the penalized objective (or the
    curvature estimate vanishes) the iteration keeps the plain double update,
    preserving monotone descent between penalty bumps.
    """
    return _run_design(T0, profile, params, accelerated=True, monitor=monitor)
