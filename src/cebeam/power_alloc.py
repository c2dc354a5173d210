"""Stage 1: choose transmit power levels toward the target grid and each
clutter direction by maximizing a large-array surrogate of the relative
entropy, one coordinate at a time with an exhaustive grid search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelError, QuantizationModel, Scenario, clutter_load


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

    @classmethod
    def from_dict(cls, d: dict) -> "PowerProfile":
        t = np.asarray(d["target"], float).reshape(-1, 2)
        c = np.asarray(d["clutter"], float).reshape(-1, 2) if d["clutter"] else np.zeros((0, 2))
        return cls(np.radians(t[:, 0]), t[:, 1], np.radians(c[:, 0]), c[:, 1])

    @classmethod
    def uniform(cls, scenario: Scenario, target_level: float = 1.0,
                clutter_level: float = 0.0) -> "PowerProfile":
        grid = scenario.target_grid()
        return cls(grid, np.full(grid.size, target_level),
                   scenario.clutter_angles, np.full(scenario.n_clutter, clutter_level))


def asymptotic_objective(phi_t, phi_c, scenario: Scenario, q: QuantizationModel):
    """Large-array relative-entropy surrogate for one target-grid power.

    Treats the steering directions as asymptotically orthogonal, which
    diagonalizes both hypothesis covariances; the divergence then reduces to
    scalar log and ratio terms in the per-direction powers.  Broadcasts over
    leading dimensions of ``phi_t`` / ``phi_c``.
    """
    phi_t = np.asarray(phi_t, float)
    phi_c = np.asarray(phi_c, float)
    L, n_r, K = scenario.code_len, scenario.n_rx, scenario.n_clutter
    a2L = q.alpha ** 2 * L
    abL = q.alpha * q.beta * L

    clutter_sum = clutter_load(scenario, phi_c)
    chi = a2L * scenario.noise_power + abL * (
        scenario.target_power * phi_t / n_r + clutter_sum + scenario.noise_power)
    varpi = a2L * scenario.noise_power + abL * (clutter_sum + scenario.noise_power)

    target_gain = a2L * scenario.target_power * phi_t
    clutter_gain = a2L * scenario.clutter_powers * phi_c

    log_h1 = n_r * np.log(chi) + np.log1p(target_gain / chi) \
        + np.sum(np.log1p(clutter_gain / chi[..., None]), axis=-1)
    log_h0 = n_r * np.log(varpi) + np.sum(np.log1p(clutter_gain / varpi[..., None]), axis=-1)

    trace = varpi / (chi + target_gain) \
        + np.sum((varpi[..., None] + clutter_gain) / (chi[..., None] + clutter_gain), axis=-1) \
        + varpi / chi * (n_r - K - 1)

    return log_h1 - log_h0 + trace - n_r


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
                         tol: float = 1e-4, init_level: float = 0.5) -> PowerAllocationResult:
    """Cyclic exact maximization of each power level over the grid {0, step, .., 1}.

    Coordinate order is target grid points ascending, then clutter indices
    ascending; ties in the per-coordinate argmax break toward the smallest
    level so plateaus do not inflate clutter power.  The objective trace is
    non-decreasing by construction; the sweep stops when one full pass
    improves the objective by less than ``tol``.
    """
    if not (0.0 < grid_step <= 0.5):
        raise ModelError(f"grid step must lie in (0, 0.5], got {grid_step}")
    if max_sweeps < 1 or not tol > 0:
        raise ModelError(f"max_sweeps >= 1 and tol > 0 required, got {max_sweeps} and {tol}")
    n_steps = int(round(1.0 / grid_step))
    candidates = np.linspace(0.0, 1.0, n_steps + 1)

    grid = scenario.target_grid()
    n_t, K = grid.size, scenario.n_clutter
    t_lvl = np.full(n_t, float(init_level))
    c_lvl = np.full(K, float(init_level))

    def update_coordinate(levels: np.ndarray, idx: int, is_target: bool) -> float:
        n_cand = candidates.size
        cand_t = np.tile(t_lvl, (n_cand, 1))
        cand_c = np.tile(c_lvl, (n_cand, 1))
        (cand_t if is_target else cand_c)[:, idx] = candidates
        # one broadcast path for every evaluation, so identical configurations
        # evaluate bitwise-identically and the trace stays exactly monotone
        vals = profile_objective(cand_t, cand_c, scenario, q)
        cur_idx = int(round(levels[idx] / grid_step))
        v_cur = vals[cur_idx]
        # smallest level within a hair of the maximum wins plateaus, but never
        # accept a value below the incumbent
        floor = max(vals.max() - 1e-9 * (1.0 + abs(vals.max())), v_cur)
        best = int(np.argmax(vals >= floor))
        levels[idx] = candidates[best]
        return float(vals[best])

    trace = []
    current = float(profile_objective(t_lvl[None, :], c_lvl[None, :], scenario, q)[0])
    converged = False
    sweep = 0
    for sweep in range(1, max_sweeps + 1):
        before = current
        for i in range(n_t):
            current = update_coordinate(t_lvl, i, True)
            trace.append(current)
        for k in range(K):
            current = update_coordinate(c_lvl, k, False)
            trace.append(current)
        if current - before < tol:
            converged = True
            break

    profile = PowerProfile(grid, t_lvl, scenario.clutter_angles, c_lvl)
    return PowerAllocationResult(profile=profile, objective=current,
                                 trace=np.asarray(trace), sweeps=sweep,
                                 converged=converged, grid_step=grid_step)
