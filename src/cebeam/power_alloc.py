"""Stage 1: transmit power levels toward the target grid and each clutter
direction, in closed form (``power_profile``).  ``bcd_power_allocation``, an
exhaustive coordinate search of a large-array surrogate of the relative
entropy, is the oracle the tests hold it to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelError, QuantizationModel, Scenario, kl_terms, white_levels


@dataclass
class PowerProfile:
    """Desired beampattern levels on the target grid and clutter angles.

    Levels live in [0, 1]; angles are radians.  The concatenation order
    (target grid ascending, then clutter as listed) is the canonical
    coordinate order used everywhere downstream.
    """

    target_angles: np.ndarray
    target_levels: np.ndarray
    clutter_angles: np.ndarray
    clutter_levels: np.ndarray

    def __post_init__(self):
        self.target_angles = np.atleast_1d(np.asarray(self.target_angles, float))
        self.target_levels = np.atleast_1d(np.asarray(self.target_levels, float))
        self.clutter_angles = np.asarray(self.clutter_angles, float).reshape(-1)
        self.clutter_levels = np.asarray(self.clutter_levels, float).reshape(-1)
        if self.target_angles.size != self.target_levels.size:
            raise ModelError("target angle/level lengths differ")
        if self.clutter_angles.size != self.clutter_levels.size:
            raise ModelError("clutter angle/level lengths differ")
        levels = self.all_levels()
        if np.any(levels < 0.0) or np.any(levels > 1.0):
            raise ModelError("power levels must lie in [0, 1]")

    def all_angles(self) -> np.ndarray:
        return np.concatenate((self.target_angles, self.clutter_angles))

    def all_levels(self) -> np.ndarray:
        return np.concatenate((self.target_levels, self.clutter_levels))

    def to_dict(self) -> dict:
        return {
            "target": [[float(np.degrees(a)), float(l)]
                       for a, l in zip(self.target_angles, self.target_levels)],
            "clutter": [[float(np.degrees(a)), float(l)]
                        for a, l in zip(self.clutter_angles, self.clutter_levels)],
        }


def asymptotic_objective(phi_t, phi_c, scenario: Scenario, q: QuantizationModel):
    """Large-array relative-entropy surrogate for one target-grid power.

    Treats the steering directions as orthogonal, which diagonalizes both
    hypothesis covariances.  With c0, delta and the steered gains g = alpha^2 L
    P phi of ``white_levels``, R1 exceeds R0 by the relative change
    s = (delta + g_t)/c0 toward the target, delta/(c0 + g_k) toward clutter k
    and delta/c0 in the N_r - K - 1 other directions, and the surrogate is D's
    own kernel ``kl_terms`` over them.  Broadcasts over leading dimensions of
    ``phi_t`` / ``phi_c``.
    """
    phi_t = np.asarray(phi_t, float)
    phi_c = np.asarray(phi_c, float)
    _, _, c0, _, delta, g_t, g_c = white_levels(scenario, q, phi_c, phi_t)
    clutter = kl_terms(delta[..., None] / (c0[..., None] + g_c))
    outside = scenario.n_rx - scenario.n_clutter - 1
    return (kl_terms((delta + g_t) / c0) + np.sum(clutter, axis=-1)
            + outside * kl_terms(delta / c0))


def profile_objective(target_levels, clutter_levels, scenario: Scenario, q: QuantizationModel):
    """Surrogate summed over the target grid (shared clutter levels).

    ``target_levels`` has one entry per target-grid angle; broadcasting over
    a leading candidate axis of either argument is supported.
    """
    target_levels = np.asarray(target_levels, float)
    clutter_levels = np.asarray(clutter_levels, float)
    per_point = asymptotic_objective(target_levels, clutter_levels[..., None, :]
                                     if clutter_levels.ndim > 1 else clutter_levels,
                                     scenario, q)
    return np.sum(per_point, axis=-1)


def power_profile(scenario: Scenario) -> PowerProfile:
    """Every target-grid level at 1 and every clutter level at 0: a maximum of D.

    A target level raises R1 - R0 = delta I + g a_t a_t^H and leaves R0; a
    clutter level raises R0 and leaves R1 - R0 (Loewner order).  D sums
    f(s) = log1p(s) - s/(1 + s), rising on s >= 0, over the eigenvalues s of
    R0^-1/2 (R1 - R0) R0^-1/2, or of (R1 - R0)^1/2 R0^-1 (R1 - R0)^1/2, so by
    Weyl each s rises with a target level and falls with a clutter level, at
    every resolution; ``asymptotic_objective`` sums f over the same changes.
    """
    grid = scenario.target_grid()
    return PowerProfile(grid, np.ones(grid.size), scenario.clutter_angles,
                        np.zeros(scenario.n_clutter))


@dataclass
class PowerAllocationResult:
    profile: PowerProfile
    objective: float
    trace: np.ndarray           # objective after every single-coordinate update
    sweeps: int
    converged: bool
    grid_step: float


def bcd_power_allocation(scenario: Scenario, q: QuantizationModel,
                         grid_step: float = 0.01, max_sweeps: int = 100,
                         tol: float = 1e-4) -> PowerAllocationResult:
    """Cyclic exact maximization of each power level over the grid {0, step, .., 1}.

    Every level starts at 0.5.  Coordinate order is target grid points
    ascending, then clutter indices ascending; ties in the per-coordinate
    argmax break toward the smallest level so plateaus do not inflate clutter
    power.  The objective trace is non-decreasing by construction; the sweep
    stops when one full pass improves the objective by less than ``tol`` times
    its value, or not at all.  Both rules are relative, since the objective
    shrinks as the target power squared.
    """
    if not (0.0 < grid_step <= 0.5):
        raise ModelError(f"grid step must lie in (0, 0.5], got {grid_step}")
    if max_sweeps < 1 or not tol > 0:
        raise ModelError(f"max_sweeps >= 1 and tol > 0 required, got {max_sweeps} and {tol}")
    candidates = np.linspace(0.0, 1.0, int(round(1.0 / grid_step)) + 1)
    grid = scenario.target_grid()
    t_lvl, c_lvl = np.full(grid.size, 0.5), np.full(scenario.n_clutter, 0.5)

    def update_coordinate(levels: np.ndarray, idx: int) -> float:
        cand_t, cand_c = (np.tile(lvl, (candidates.size, 1)) for lvl in (t_lvl, c_lvl))
        (cand_t if levels is t_lvl else cand_c)[:, idx] = candidates
        # one broadcast path for every evaluation, so identical configurations
        # evaluate bitwise-identically and the trace stays exactly monotone
        vals = profile_objective(cand_t, cand_c, scenario, q)
        # smallest level within a hair of the maximum wins plateaus, but never
        # accept a value below the incumbent
        floor = max(vals.max() - 1e-9 * abs(vals.max()), vals[int(round(levels[idx] / grid_step))])
        best = int(np.argmax(vals >= floor))
        levels[idx] = candidates[best]
        return float(vals[best])

    trace = []
    current = float(profile_objective(t_lvl[None, :], c_lvl[None, :], scenario, q)[0])
    converged = False
    sweep = 0
    for sweep in range(1, max_sweeps + 1):
        before = current
        for levels in (t_lvl, c_lvl):
            for idx in range(levels.size):
                current = update_coordinate(levels, idx)
                trace.append(current)
        if current - before <= tol * abs(current):     # 0 <= 0 at zero target power
            converged = True
            break

    profile = PowerProfile(grid, t_lvl, scenario.clutter_angles, c_lvl)
    return PowerAllocationResult(profile=profile, objective=current,
                                 trace=np.asarray(trace), sweeps=sweep,
                                 converged=converged, grid_step=grid_step)
