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

Q(X) = B diag(d) B^H with B = [conj(A), X] and d = [phi - level, pen * 1]
has rank at most r = P + N_rf, so no quantity the update needs requires an
N_t x N_t matrix, nor a factorization of the N_t-row B (Sun, Babu &
Palomar, IEEE TSP 2017, on cheap MM steps).  The r x r Gram of B is already
at hand: A^T conj(A) is fixed per profile, Z = A^T X comes from the pattern
evaluation and X^H X from the orthogonality residual.  With its Cholesky
factor B^H B = L L^H,

    lam_max(Q) = lam_max(L^H diag(d) L),
    smax(X)    = sqrt(lam_max(X^H X)),
    (shift * I - Q) X = shift * X - conj(A) ((phi - level) * Z) - pen * X (X^H X).

When the Gram's rounding could move lam_max(Q) by more than 1e-13 ||Q||_2
(a small Cholesky pivot, or gaps of both signs on nearly parallel columns),
lam_max(Q) comes from R diag(d) R^H for the thin QR B = U R instead.  The
minorizer takes this form when N_t >= 32 and 2 r <= N_t (``takes_low_rank``,
a measured crossover); below it the dense Q and its eigensolve are cheaper.

The per-design constants (A, conj(A), the levels, lam_max(G), A^T conj(A),
the side of the crossover, the minorizers' scratch) live in one ``DesignProblem``
that each design loop builds once; stage 2, the one-bit EPM and the
projection baseline all read them from it.

Every point the loops visit is evaluated once, into an ``Iterate``: its
pattern terms Z and gaps, the MSE and the orthogonality residual.  The map
takes its minorizer and base objective from the incoming record and returns
the accepted candidate's record (or the incoming one on a stall); SQUAREM
compares records, and the trace reads the accepted one.  ``penalized_objective``
and ``beampattern_mse`` are thin wrappers over the same evaluation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import eigvalsh_lo, svd

from .model import ModelError, steering_matrix, unit_modulus
from .power_alloc import PowerProfile


# Penalty continuation of the stage-2 loops: the orthogonality penalty starts
# at PENALTY_INIT and grows by PENALTY_GROWTH after every PENALTY_PERIOD
# iterations that have not converged.
PENALTY_INIT = 0.01
PENALTY_GROWTH = 1.5
PENALTY_PERIOD = 50


@dataclass
class CeDesignParams:
    """Stopping rule of the stage-2 MM loops.

    ``seed`` is read by no solver: the start point comes from the ``seed`` of
    ``run_ce_design``, and this field reaches only the artifacts' provenance.
    It stays while the benchmark's workloads construct ``CeDesignParams(seed=...)``.
    """

    max_iters: int = 1500
    tol: float = 1e-4            # on ||T_m - T_{m-1}||_F^2
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1 or not (math.isfinite(self.tol) and self.tol > 0):
            raise ModelError(f"max_iters >= 1 and a finite tol > 0 required, "
                             f"got {self.max_iters} and {self.tol}")


@dataclass(slots=True)
class MinorizerState:
    """Quadratic surrogate at the current iterate T_m.

    ``lambda_max`` is the exact top eigenvalue of Q (equal to the top
    eigenvalue of I (x) Q, so the Kronecker-size matrix is never formed) and
    ``sigma_max`` is the spectral norm of T_m.

    Q = B diag(d) B^H with B = [conj(A), T_m] and d = [gaps, penalty * 1]
    has rank at most r = P + N_rf.  When ``takes_low_rank(n_tx, r)``
    (n_tx >= 32 and 2 r <= n_tx), Q is never formed: ``lambda_max`` is the
    top eigenvalue of L^H diag(d) L for the Cholesky factor B^H B = L L^H of
    the r x r Gram, with the thin QR B = U R and R diag(d) R^H as the
    fallback that ``gram_fallback`` marks; ``sigma_max`` is
    sqrt(lambda_max(T_m^H T_m)), ``q_matrix`` is None, and ``q_times_t``
    holds Q T_m = conj(A) (gaps * Z) + penalty * T_m (T_m^H T_m), with
    Z = A^T T_m.  Otherwise ``q_matrix`` holds the dense Q,
    ``sigma_max`` comes from an SVD and ``q_times_t`` is None.
    """

    q_matrix: np.ndarray | None
    q_times_t: np.ndarray | None
    lambda_max: float
    sigma_max: float
    gram_fallback: bool = False

    def direction(self, problem: DesignProblem, T_m: np.ndarray, shift: float) -> np.ndarray:
        """(shift * I - Q) T_m, whose phases are the next iterate.

        The dense shift * I - Q is built in ``problem.work[1]``, which Q leaves free.
        """
        if self.q_matrix is None:
            return shift * T_m - self.q_times_t
        shifted = np.multiply(problem.eye, shift, out=problem.work[1])
        shifted -= self.q_matrix
        return shifted @ T_m


@dataclass(slots=True, eq=False)
class Iterate:
    """A design point evaluated once; every later use reads these fields.

    ``Z`` and ``gaps`` are ``pattern_terms(T, problem)``, ``mse`` the sum of
    the squared gaps, ``gram`` the column Gram T^H T and ``orth`` the residual
    ||T^H T - I||_F.  ``fallback`` marks a point that ``mm_map`` reached with
    the guaranteed shift after rejecting the optimistic one.
    """

    T: np.ndarray
    Z: np.ndarray
    gaps: np.ndarray
    mse: float
    orth: float
    gram: np.ndarray
    fallback: bool = False

    def objective(self, penalty: float) -> float:
        """Penalized objective mse + penalty * orth ** 2."""
        return self.mse + penalty * self.orth ** 2


@dataclass
class MmTrace:
    """Per-iteration history of one design run, with its fallback counts.

    ``minorizer`` is the side of the crossover the design's problem took,
    ``"low-rank"`` or ``"dense"``.  ``shift_rejections`` counts maps whose
    optimistic shift would have ascended (stalls included), ``stalls`` the
    maps where the guaranteed shift did too, so the map returned its input,
    ``gram_fallbacks`` the maps whose low-rank minorizer fell back from the
    Gram's Cholesky factor to the thin QR, and ``squarem_rejections`` the
    accelerated iterations that kept the plain double update.
    """

    mse: np.ndarray
    objective: np.ndarray
    penalty: np.ndarray
    orth_residual: np.ndarray
    minorizer: str
    iterations: int = 0
    map_evals: int = 0
    converged: bool = False
    wall_time_s: float = 0.0
    shift_rejections: int = 0
    gram_fallbacks: int = 0
    stalls: int = 0
    squarem_rejections: int = 0

    def counters(self) -> dict[str, int]:
        """The fallback counts, as the reports carry them."""
        return {"shift_rejections": self.shift_rejections,
                "gram_fallbacks": self.gram_fallbacks, "stalls": self.stalls,
                "squarem_rejections": self.squarem_rejections}


@dataclass(frozen=True, eq=False)
class DesignProblem:
    """What every design point of one profile on n_tx x n_rf designs shares.

    ``A`` = [a_1 .. a_P] steers toward the profile angles (targets, then
    clutter), ``levels`` are the requested levels in that order,
    ``gram_lambda`` = lam_max(G), G[p,q] = |a_p^H a_q|^2, bounds the curvature
    of the pattern functionals, and ``low_rank`` is the one record of the
    crossover's side.  ``gram_work``, whose P x P block is the fixed
    A^T conj(A), is the scratch of B^H B that the low-rank minorizer fills
    with ``d_work`` = d (see ``MinorizerState``).  Only the dense side holds
    ``eye``, the n_tx identity, and the scratch ``scaled`` = conj(A)
    diag(gaps) and ``work``, (2, n_tx, n_tx), that Q and then shift * I - Q
    are built in: fresh temporaries of that size on every call page-fault,
    thousands of times per design.
    """

    A: np.ndarray
    A_conj: np.ndarray
    levels: np.ndarray
    gram_lambda: float
    low_rank: bool
    eye_rf: np.ndarray
    gram_work: np.ndarray
    d_work: np.ndarray
    eye: np.ndarray | None = None
    scaled: np.ndarray | None = None
    work: np.ndarray | None = None


def design_problem(profile: PowerProfile, n_tx: int, n_rf: int) -> DesignProblem:
    """The ``DesignProblem`` of ``profile`` on n_tx x n_rf designs; one per design loop."""
    A = steering_matrix(profile.all_angles(), n_tx)
    P = A.shape[1]
    cross = A.conj().T @ A
    lam = float(np.linalg.eigvalsh(np.abs(cross) ** 2)[-1]) if P else 0.0
    gram_work = np.empty((P + n_rf, P + n_rf), dtype=complex)
    gram_work[:P, :P] = cross.conj()
    shared = (A, A.conj(), profile.all_levels(), lam)
    scratch = (np.eye(n_rf), gram_work, np.empty(P + n_rf))
    if takes_low_rank(n_tx, P + n_rf):
        return DesignProblem(*shared, True, *scratch)
    return DesignProblem(*shared, False, *scratch, eye=np.eye(n_tx),
                         scaled=np.empty((n_tx, P), dtype=complex),
                         work=np.empty((2, n_tx, n_tx), dtype=complex))


def pattern_terms(T: np.ndarray, problem: DesignProblem) -> tuple[np.ndarray, np.ndarray]:
    """Responses Z = A^T T and pattern gaps sum_r |Z[p, r]|^2 - level_p.

    ``T`` may carry leading batch axes in front of its (n_tx x n_rf) shape;
    Z and the gaps keep them.
    """
    Z = problem.A.T @ T
    return Z, np.add.reduce(np.square(np.abs(Z)), axis=-1) - problem.levels


def evaluate_iterate(T: np.ndarray, problem: DesignProblem, fallback: bool = False) -> Iterate:
    """The one evaluation of a design point that the loops and wrappers share."""
    Z, gaps = pattern_terms(T, problem)
    gram = T.conj().T @ T
    return Iterate(T, Z, gaps, float(np.add.reduce(np.square(gaps))),
                   _norm(gram - problem.eye_rf), gram, fallback)


def beampattern_mse(T: np.ndarray, profile: PowerProfile) -> float:
    """Sum of squared gaps between the achieved and requested pattern levels."""
    return evaluate_iterate(T, design_problem(profile, *T.shape)).mse


def orthogonality_residual(T: np.ndarray) -> float:
    return _norm(T.conj().T @ T - np.eye(T.shape[1]))


def _norm(X: np.ndarray) -> float:
    """np.linalg.norm(X) of a complex X, by numpy's own formula without its dispatch."""
    x = X.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def penalized_objective(T: np.ndarray, profile: PowerProfile, penalty: float) -> float:
    if penalty < 0:
        raise ModelError("penalty must be >= 0")
    return evaluate_iterate(T, design_problem(profile, *T.shape)).objective(penalty)


# Crossover of the matrix-free minorizer.  Per mm_map call with one BLAS
# thread (best of 5 x 400 maps; 2 and 4 profile angles, 2 RF chains), the dense
# path still wins at 8 and 12 antennas: 45 us against 54 us, and 50 us against
# 56 us.  No workload designs on that side, so the crossover stays and desk32 stays dense.
LOW_RANK_MIN_TX = 32


def takes_low_rank(n_tx: int, rank: int) -> bool:
    """Whether the minorizer of rank r = P + N_rf goes matrix-free.

    default128 (r = 23, n_tx = 128) does; desk32 (r = 27, n_tx = 32) keeps
    the dense path.
    """
    return n_tx >= LOW_RANK_MIN_TX and 2 * rank <= n_tx


def minorizer_matrix(x: Iterate, problem: DesignProblem, penalty: float) -> MinorizerState:
    """Surrogate Q = sum_p (phi_p - level_p) a_p* a_p^T + penalty * T_m T_m^H.

    T_m is ``x.T``; the gaps phi_p - level_p, Z = A^T T_m and T_m^H T_m come
    from the record ``x`` and are not evaluated again.  On the problem's
    low-rank side only lambda_max and Q T_m are computed, from the r x r
    Gram of B = [conj(A), T_m]; see ``MinorizerState``.  On the dense side Q
    is built in the problem's scratch.  A negative penalty is refused.
    """
    if penalty < 0:
        raise ModelError("penalty must be >= 0")
    T_m = x.T
    if problem.low_rank:
        lam, q_t, sigma_max, fell_back = _low_rank_minorizer(x, problem, penalty)
        return MinorizerState(None, q_t, lam, sigma_max, fell_back)
    # the spectral norm, as np.linalg.norm(T_m, 2) takes it: the top singular value
    sigma_max = float(_lapack_values(svd, T_m)[0])
    Q = _dense_minorizer(problem, x.gaps, T_m, penalty)
    # exact extremal eigenvalue: an underestimated shift voids the descent
    # guarantee, so no iterative approximation here
    return MinorizerState(Q, None, float(_lapack_values(eigvalsh_lo, Q)[-1]), sigma_max)


def _lapack_values(gufunc, X: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh or svd(compute_uv=False) of complex X by its gufunc, without dispatch."""
    values = gufunc(X, signature="D->d")
    if math.isnan(values[0]):                      # how the gufunc reports a failed solve
        raise np.linalg.LinAlgError(f"{gufunc.__name__} did not converge")
    return values


def _dense_minorizer(problem: DesignProblem, gaps: np.ndarray, T_m: np.ndarray,
                     penalty: float) -> np.ndarray:
    """Q = conj(A) diag(gaps) A^T + penalty * T_m T_m^H, built in ``problem.work[0]``."""
    work = problem.work
    scaled = np.multiply(problem.A_conj, gaps, out=problem.scaled)
    Q = np.matmul(scaled, problem.A.T, out=work[0])
    gram = np.matmul(T_m, T_m.conj().T, out=work[1])
    gram *= penalty
    Q += gram
    Q += np.conjugate(Q.T, out=work[1])
    Q *= 0.5
    return Q


# Rounding error of the Gram route, relative to ||Q||_2, above which the thin
# QR takes over (see _gram_eigenvalues).
GRAM_ERROR_LIMIT = 1e-13
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def _low_rank_minorizer(x: Iterate, problem: DesignProblem,
                        penalty: float) -> tuple[float, np.ndarray, float, bool]:
    """Exact lambda_max(Q), Q T_m and sigma_max(T_m) without an n_tx-row factorization.

    With B = [conj(A), T_m] and d = [gaps, penalty * 1], Q = B diag(d) B^H
    shares its nonzero eigenvalues with diag(d) B^H B, and so with the
    Hermitian L^H diag(d) L for the Cholesky factor B^H B = L L^H.  The Gram
    is filled from the problem's A^T conj(A) and the record's
    Z = A^T T_m and T_m^H T_m.  When the Gram route cannot be trusted
    (``_gram_eigenvalues``), the thin QR B = U R gives R diag(d) R^H
    instead.  That r x r matrix's top eigenvalue is itself lambda_max(Q) >= 0,
    to rounding, though the gaps may all be negative: a direction x of
    range(B) orthogonal to conj(A) has x^H Q x = penalty * |T_m^H x|^2 >= 0,
    and without one B is rank-deficient, so the r x r matrix has zero
    eigenvalues.  Returns lambda_max, Q T_m, sigma_max and whether the thin
    QR was taken.
    """
    T_m, Z, gaps, gram = x.T, x.Z, x.gaps, x.gram
    P = gaps.size
    G, d = problem.gram_work, problem.d_work
    G[:P, P:] = Z
    np.conjugate(Z.T, out=G[P:, :P])
    G[P:, P:] = gram
    d[:P] = gaps
    d[P:] = penalty
    eigs = _gram_eigenvalues(G, d)
    fell_back = eigs is None
    if fell_back:
        R = np.linalg.qr(np.concatenate((problem.A_conj, T_m), axis=1), mode="r")
        eigs = _lapack_values(eigvalsh_lo, (R * d) @ R.conj().T)
    lam = float(eigs[-1])                          # eigvalsh sorts ascending
    sigma_max = math.sqrt(max(float(_lapack_values(eigvalsh_lo, gram)[-1]), 0.0))
    q_t = problem.A_conj @ (gaps[:, None] * Z)
    q_t += np.multiply(penalty, T_m @ gram)
    return lam, q_t, sigma_max, fell_back


def _gram_eigenvalues(G: np.ndarray, d: np.ndarray) -> np.ndarray | None:
    """Eigenvalues of L^H diag(d) L for G = B^H B = L L^H, or None if untrusted.

    Rounding in B^H B reaches the eigenvalues amplified by 1 / (smallest
    Cholesky pivot): about r * eps * max|d| * g^(3/2) / p_min in absolute
    terms, with g the largest diagonal entry of the r x r Gram.  Measured on
    random and near-degenerate cases, the error stayed within 4 times this
    estimate, whatever the conditioning.  Gaps of both signs on nearly
    parallel columns cancel in Q, so the estimate must stay below
    ``GRAM_ERROR_LIMIT`` times ||Q||_2 = max|eigs|, not times max|d|.  A Q
    below the normal range holds no relative accuracy to certify, and a G
    that is not numerically positive definite has no Cholesky factor.
    """
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None
    eigs = _lapack_values(eigvalsh_lo, (L.conj().T * d) @ L)
    g = float(G.diagonal().real.max())
    p_min = float(L.diagonal().real.min())
    q_norm = max(-float(eigs[0]), float(eigs[-1]))
    error = d.size * _EPS * float(np.abs(d).max()) * g * math.sqrt(g)
    if q_norm >= _TINY and error <= GRAM_ERROR_LIMIT * p_min * q_norm:
        return eigs
    return None


def mm_map(x: Iterate, problem: DesignProblem, penalty: float,
           counts: dict | None = None) -> Iterate:
    """One closed-form phase update of the fixed-point map, from and to a record.

    New phases are the arguments of (shift*I - Q) T_m applied column by
    column, T_m = ``x.T``; entries where that product vanishes keep their
    previous phase.  An optimistic shift (valid near orthonormal iterates)
    is tried first and replaced by the worst-case one whenever the penalized
    objective would grow, so the map never ascends.  Each candidate is
    evaluated once and the accepted one's record is returned; when both
    shifts would ascend (a stall) the input record itself comes back.
    ``counts``, when given, gains one under ``gram_fallbacks`` for a
    minorizer that took the thin QR.
    """
    state = minorizer_matrix(x, problem, penalty)
    if counts is not None:
        counts["gram_fallbacks"] += state.gram_fallback
    lam_p = problem.gram_lambda + penalty
    base = x.objective(penalty)
    T_m = x.T
    n_tx, n_rf = T_m.shape
    shifts = (state.lambda_max + 0.5 * (state.sigma_max + 1.05) ** 2 * lam_p,
              state.lambda_max + 2.0 * n_rf * lam_p)
    for k, shift in enumerate(shifts):
        direction = state.direction(problem, T_m, shift)
        cand = evaluate_iterate(_project_phases(direction, T_m, n_tx), problem, fallback=k > 0)
        if cand.objective(penalty) <= base + 1e-12:
            return cand
    return x


def _project_phases(Z: np.ndarray, fallback: np.ndarray, n_tx: int) -> np.ndarray:
    """Unit-modulus matrix with the phases of Z; zero entries keep the fallback's phase."""
    phases = np.arctan2(Z.imag, Z.real)         # np.angle; Z == 0 where |Z| == 0
    if np.count_nonzero(Z) < Z.size:
        dead = Z == 0.0
        phases[dead] = np.angle(fallback)[dead]
    return unit_modulus(phases, n_tx)


def _run_design(T0: np.ndarray, profile: PowerProfile, params: CeDesignParams,
                accelerated: bool, monitor=None) -> tuple[np.ndarray, MmTrace]:
    n_tx = T0.shape[0]
    penalty = PENALTY_INIT
    problem = design_problem(profile, *T0.shape)
    x = evaluate_iterate(T0, problem)
    mse_hist, obj_hist, pen_hist, orth_hist = [], [], [], []
    counts = {"map_evals": 0, "shift_rejections": 0, "gram_fallbacks": 0, "stalls": 0,
              "squarem_rejections": 0}
    converged = False
    period_max_step = 0.0
    started = time.perf_counter()

    def counted_map(x_in: Iterate) -> Iterate:
        x_out = mm_map(x_in, problem, penalty, counts=counts)
        counts["map_evals"] += 1
        counts["stalls"] += x_out is x_in
        counts["shift_rejections"] += x_out is x_in or x_out.fallback
        return x_out

    for it in range(1, params.max_iters + 1):
        if accelerated:
            x1 = counted_map(x)
            x2 = counted_map(x1)
            Y1 = x1.T - x.T
            Y2 = x2.T - x1.T
            Y2 -= Y1
            n2 = _norm(Y2)
            x_new = x2
            if n2 > 0.0:
                kappa = -_norm(Y1) / n2
                # x.T - 2 kappa Y1 + kappa^2 Y2, in that order, in place
                Z = np.subtract(x.T, np.multiply(2.0 * kappa, Y1, out=Y1), out=Y1)
                Z += np.multiply(kappa ** 2, Y2, out=Y2)
                x_acc = evaluate_iterate(_project_phases(Z, x.T, n_tx), problem)
                # the extrapolated point must not undo the two plain steps
                if x_acc.objective(penalty) <= x2.objective(penalty):
                    x_new = x_acc
            counts["squarem_rejections"] += x_new is x2
        else:
            x_new = counted_map(x)

        step = _norm(x_new.T - x.T) ** 2
        x = x_new
        mse_hist.append(x.mse)
        obj_hist.append(x.objective(penalty))
        pen_hist.append(penalty)
        orth_hist.append(x.orth)
        if monitor is not None:
            monitor(it, x.T)

        # a numerically fixed point (phase wobble at the atan2 rounding floor)
        # stops at once; otherwise convergence needs the iterate to stay
        # within tol for a whole penalty period, so that mid-period plateaus
        # of the continuation are not mistaken for the end
        if step <= 1e-28:
            converged = True
            break
        period_max_step = max(period_max_step, step)
        if it % PENALTY_PERIOD == 0:
            if period_max_step <= params.tol:
                converged = True
                break
            period_max_step = 0.0
            penalty *= PENALTY_GROWTH

    trace = MmTrace(
        mse=np.asarray(mse_hist), objective=np.asarray(obj_hist),
        penalty=np.asarray(pen_hist), orth_residual=np.asarray(orth_hist),
        minorizer="low-rank" if problem.low_rank else "dense",
        iterations=len(obj_hist), converged=converged,
        wall_time_s=time.perf_counter() - started, **counts)
    return x.T, trace


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
