"""Array geometry, receiver quantization model, hypothesis covariances and
relative-entropy evaluation for a colocated MIMO radar with a hybrid
transmitter and few-bit ADCs at the receiver.

Everything here is a pure function of its inputs; values are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Normalized MSE of the minimum-distortion scalar quantizer on a unit
# Gaussian source, indexed by bit depth.  The linearized quantizer model uses
# gain alpha = 1 - beta plus uncorrelated noise with variance
# alpha*beta*diag(input covariance).
ADC_DISTORTION = {1: 0.3634, 2: 0.1175, 3: 0.03454, 4: 0.009497, 5: 0.002499}

# Hermitian matrices worse conditioned than this are refused by the
# relative-entropy evaluator rather than silently inverted.
MAX_CONDITION = 1e12


class ModelError(ValueError):
    """Invalid model construction or evaluation."""


class UnsupportedResolutionError(ModelError):
    """ADC bit depth outside the supported 1..5 range."""


class IllConditionedModelError(ModelError):
    """Covariance too close to singular for a trustworthy inverse."""


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


# ---------------------------------------------------------------------------
# Steering vectors
# ---------------------------------------------------------------------------

def steering_vector(theta: float, n: int) -> np.ndarray:
    """Unit-norm response of an n-element half-wavelength ULA toward theta.

    Element m equals (1/sqrt(n)) * exp(-1j*pi*m*sin(theta)); theta is measured
    from broadside, in radians.
    """
    if n < 1:
        raise ModelError(f"array needs at least one element, got {n}")
    m = np.arange(n)
    return np.exp(-1j * np.pi * m * np.sin(theta)) / np.sqrt(n)


def steering_matrix(thetas: np.ndarray, n: int) -> np.ndarray:
    """Steering vectors for several angles, stacked as columns (n x len(thetas))."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    m = np.arange(n)[:, None]
    return np.exp(-1j * np.pi * m * np.sin(thetas)[None, :]) / np.sqrt(n)


# ---------------------------------------------------------------------------
# Quantization model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantizationModel:
    """Linearized few-bit ADC: output = alpha * input + uncorrelated noise."""

    bits: int | str
    alpha: float
    beta: float

    def __post_init__(self):
        if abs(self.alpha + self.beta - 1.0) > 1e-15:
            raise ModelError("alpha + beta must equal 1 exactly")

    @property
    def ideal(self) -> bool:
        return self.beta == 0.0


def quantization_model(bits: int | str) -> QuantizationModel:
    """Gain/distortion pair (alpha, beta) for a given ADC bit depth.

    ``bits`` is 1..5 or the string "ideal" (no quantization, beta = 0).
    """
    if bits == "ideal":
        return QuantizationModel(bits="ideal", alpha=1.0, beta=0.0)
    if not isinstance(bits, (int, np.integer)) or bits not in ADC_DISTORTION:
        raise UnsupportedResolutionError(
            f"unsupported ADC resolution {bits!r}: expected 1..5 or 'ideal'")
    beta = ADC_DISTORTION[int(bits)]
    return QuantizationModel(bits=int(bits), alpha=1.0 - beta, beta=beta)


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    """Radar geometry and second-order statistics.

    Angles are radians and powers linear internally; the file format uses
    degrees and dB (see :meth:`from_dict`).
    """

    n_tx: int
    n_rx: int
    n_rf: int
    code_len: int
    target_mean_angle: float
    target_uncertainty: float
    target_power: float
    clutter_angles: np.ndarray
    clutter_powers: np.ndarray
    noise_power: float
    target_grid_spacing: float = math.radians(0.5)

    def __post_init__(self):
        self.clutter_angles = np.atleast_1d(np.asarray(self.clutter_angles, dtype=float))
        self.clutter_powers = np.atleast_1d(np.asarray(self.clutter_powers, dtype=float))
        if self.clutter_powers.size == 1 and self.clutter_angles.size > 1:
            self.clutter_powers = np.full(self.clutter_angles.size, self.clutter_powers[0])
        self.validate()

    def validate(self) -> None:
        if min(self.n_tx, self.n_rx, self.n_rf, self.code_len) < 1:
            raise ModelError("array sizes and code length must be positive")
        if self.n_rf > self.n_tx:
            raise ModelError(
                f"n_rf={self.n_rf} exceeds n_tx={self.n_tx}; "
                "orthonormal beamformer columns need n_tx >= n_rf")
        if self.n_rf > self.code_len:
            raise ModelError(
                f"n_rf={self.n_rf} exceeds code_len={self.code_len}; "
                "orthogonal waveforms need code_len >= n_rf")
        if self.clutter_angles.size != self.clutter_powers.size:
            raise ModelError("clutter angle/power lists differ in length")
        scalars = (self.target_mean_angle, self.target_uncertainty, self.target_grid_spacing,
                   self.target_power, self.noise_power)
        if not (np.all(np.isfinite(scalars)) and np.all(np.isfinite(self.clutter_angles))
                and np.all(np.isfinite(self.clutter_powers))):
            raise ModelError("angles, powers and grid settings must be finite")
        half_pi = math.pi / 2 + 1e-12
        angles = np.concatenate(([self.target_mean_angle], self.clutter_angles))
        if np.any(np.abs(angles) > half_pi):
            raise ModelError("angles must lie in [-pi/2, pi/2]")
        if self.target_power < 0:
            raise ModelError("target power must be >= 0")
        if self.noise_power <= 0 or np.any(self.clutter_powers <= 0):
            raise ModelError("noise and clutter powers must be > 0")
        if self.target_uncertainty < 0 or self.target_grid_spacing <= 0:
            raise ModelError("uncertainty must be >= 0 and grid spacing > 0")
        grid = self.target_grid()
        if grid.size < 1:
            raise ModelError("target angle grid is empty")
        all_angles = self.profile_angles()
        if np.unique(np.round(all_angles, 12)).size != all_angles.size:
            raise ModelError("duplicate angles in the target-grid/clutter union")

    @property
    def n_clutter(self) -> int:
        return int(self.clutter_angles.size)

    def target_grid(self) -> np.ndarray:
        """Discretized target angles: mean +/- uncertainty/2 stepped by the grid spacing."""
        if self.target_uncertainty == 0.0:
            return np.array([self.target_mean_angle])
        half = self.target_uncertainty / 2.0
        count = int(round(self.target_uncertainty / self.target_grid_spacing)) + 1
        return np.linspace(self.target_mean_angle - half, self.target_mean_angle + half, count)

    def profile_angles(self) -> np.ndarray:
        """Target grid followed by clutter angles: the beampattern control set."""
        return np.concatenate((self.target_grid(), self.clutter_angles))

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        """Build from the file schema (angles in degrees, powers in dB)."""
        powers = d["clutter_powers_db"]
        if np.isscalar(powers):
            powers = [powers] * len(d["clutter_angles_deg"])
        return cls(
            n_tx=int(d["n_tx"]),
            n_rx=int(d["n_rx"]),
            n_rf=int(d["n_rf"]),
            code_len=int(d["code_len"]),
            target_mean_angle=math.radians(d["target_mean_angle_deg"]),
            target_uncertainty=math.radians(d["target_uncertainty_deg"]),
            target_grid_spacing=math.radians(d.get("target_grid_spacing_deg", 0.5)),
            target_power=db_to_linear(d["target_power_db"]),
            clutter_angles=np.radians(d["clutter_angles_deg"]),
            clutter_powers=np.array([db_to_linear(p) for p in powers]),
            noise_power=db_to_linear(d["noise_power_db"]),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "Scenario":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "n_tx": self.n_tx,
            "n_rx": self.n_rx,
            "n_rf": self.n_rf,
            "code_len": self.code_len,
            "target_mean_angle_deg": math.degrees(self.target_mean_angle),
            "target_uncertainty_deg": math.degrees(self.target_uncertainty),
            "target_grid_spacing_deg": math.degrees(self.target_grid_spacing),
            "target_power_db": linear_to_db(self.target_power) if self.target_power > 0 else -math.inf,
            "clutter_angles_deg": np.degrees(self.clutter_angles).tolist(),
            "clutter_powers_db": [linear_to_db(p) for p in self.clutter_powers],
            "noise_power_db": linear_to_db(self.noise_power),
        }

    def content_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, default=str).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Beamformers
# ---------------------------------------------------------------------------

def unit_modulus(phases: np.ndarray, n_tx: int) -> np.ndarray:
    """Complex beamformer with the given phases and per-entry modulus 1/sqrt(n_tx)."""
    return np.exp(1j * np.asarray(phases)) / np.sqrt(n_tx)


def random_unit_modulus(n_tx: int, n_rf: int, rng: np.random.Generator) -> np.ndarray:
    """Beamformer with i.i.d. uniform random phases."""
    return unit_modulus(rng.uniform(0.0, 2.0 * np.pi, size=(n_tx, n_rf)), n_tx)


def is_unit_modulus(T: np.ndarray, n_tx: int, tol: float = 1e-12) -> bool:
    return bool(np.all(np.abs(np.abs(T) - 1.0 / np.sqrt(n_tx)) <= tol))


def beampattern_power(T: np.ndarray, theta: float) -> float:
    """Transmit power steered toward theta: a^T T T^H a* for the tx steering vector a."""
    a = steering_vector(theta, T.shape[0])
    z = a @ T
    return float(np.real(np.vdot(z, z)))


def beampattern_powers(T: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Vectorized beampattern over an angle list."""
    A = steering_matrix(thetas, T.shape[0])
    Z = A.T @ T
    return np.sum(np.abs(Z) ** 2, axis=1)


# ---------------------------------------------------------------------------
# Hypothesis covariances and relative entropy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypothesisCovariances:
    """Receive covariances under the no-target (r0) and target (r1) hypotheses."""

    r0: np.ndarray
    r1: np.ndarray


def clutter_load(scenario: Scenario, phi_c) -> np.ndarray:
    """Clutter power per receive antenna, sum_k sigma_k phi_k / N_r, over the last axis."""
    return np.sum(scenario.clutter_powers * phi_c, axis=-1) / scenario.n_rx


def _row_power(scenario: Scenario, phi_c: np.ndarray, phi_t: float | None = None) -> float:
    power = float(clutter_load(scenario, phi_c)) + scenario.noise_power
    if phi_t is not None:
        power += scenario.target_power * phi_t / scenario.n_rx
    return power


def model_row_power(scenario: Scenario, T: np.ndarray, theta_t: float | None) -> float:
    """Per-snapshot, per-antenna received variance before quantization.

    Uniform across a ULA; ``theta_t=None`` gives the no-target value.
    """
    phi_t = None if theta_t is None else beampattern_power(T, theta_t)
    return _row_power(scenario, beampattern_powers(T, scenario.clutter_angles), phi_t)


def hypothesis_covariances(scenario: Scenario, T: np.ndarray, q: QuantizationModel,
                           theta_t: float) -> HypothesisCovariances:
    """Assemble the two N_r x N_r Hermitian covariances for a candidate target angle.

    The quantizer-noise covariance is alpha*beta*diag(R_Y); for a ULA the
    diagonal is the constant row power, so each hypothesis adds a scaled
    identity alpha*beta*L*row power.
    """
    L = scenario.code_len
    a2L = q.alpha ** 2 * L
    n_r = scenario.n_rx

    A_c = steering_matrix(scenario.clutter_angles, n_r)
    phi_c = beampattern_powers(T, scenario.clutter_angles)
    phi_t = beampattern_power(T, theta_t)
    rq0 = q.alpha * q.beta * L * _row_power(scenario, phi_c)
    rq1 = q.alpha * q.beta * L * _row_power(scenario, phi_c, phi_t)

    base = a2L * (A_c * (scenario.clutter_powers * phi_c)) @ A_c.conj().T
    eye = np.eye(n_r)
    r0 = base + (a2L * scenario.noise_power + rq0) * eye

    a_t = steering_vector(theta_t, n_r)
    r1 = (base
          + a2L * scenario.target_power * phi_t * np.outer(a_t, a_t.conj())
          + (a2L * scenario.noise_power + rq1) * eye)

    # enforce exact Hermitian symmetry against accumulated rounding
    r0 = 0.5 * (r0 + r0.conj().T)
    r1 = 0.5 * (r1 + r1.conj().T)
    return HypothesisCovariances(r0=r0, r1=r1)


def _logdet_and_eigs(r: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(r)
    if w[0] <= 0.0 or w[-1] / w[0] > MAX_CONDITION:
        raise IllConditionedModelError(
            f"covariance condition number {w[-1] / max(w[0], 1e-300):.3e} exceeds {MAX_CONDITION:.0e}")
    return float(np.sum(np.log(w))), w, v


def relative_entropy(cov: HypothesisCovariances) -> float:
    """Kullback-Leibler divergence between the two zero-mean Gaussian hypotheses.

    Returns -log|R0| + log|R1| + Tr(R1^-1 R0) - N_r, which is >= 0 for any
    valid covariance pair.
    """
    n_r = cov.r0.shape[0]
    logdet0, _, _ = _logdet_and_eigs(cov.r0)
    logdet1, w1, v1 = _logdet_and_eigs(cov.r1)
    rotated = v1.conj().T @ cov.r0 @ v1
    trace_term = float(np.sum(np.real(np.diag(rotated)) / w1))
    return logdet1 - logdet0 + trace_term - n_r


def averaged_relative_entropy(scenario: Scenario, T: np.ndarray, q: QuantizationModel) -> float:
    """Mean relative entropy over the discretized target-angle grid.

    Normalizing by the grid cardinality keeps the single-point case equal to
    the plain relative entropy; any positive constant gives the same argmax
    over beamformers.
    """
    grid = scenario.target_grid()
    vals = [relative_entropy(hypothesis_covariances(scenario, T, q, th)) for th in grid]
    return float(np.mean(vals))
