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
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Normalized MSE of the minimum-distortion scalar quantizer on a unit
# Gaussian source, indexed by bit depth.  The linearized quantizer model uses
# gain alpha = 1 - beta plus uncorrelated noise with variance
# alpha*beta*diag(input covariance).
ADC_DISTORTION = {1: 0.3634, 2: 0.1175, 3: 0.03454, 4: 0.009497, 5: 0.002499}

# Covariances worse conditioned than this are refused rather than silently
# inverted.  In the orthonormal steering basis of ``LowRankCovariances``,
# R = c (I - Q Q^H) + Q C Q^H has the eigenvalues of its k x k core C, plus c
# when k < N_r, so the exact condition number needs no N_r x N_r eigensolve.
MAX_CONDITION = 1e12


class ModelError(ValueError):
    """Invalid model construction or evaluation."""


class UnsupportedResolutionError(ModelError):
    """ADC bit depth outside the supported 1..5 range."""


class IllConditionedModelError(ModelError):
    """Covariance too close to singular for a trustworthy inverse."""


def db_to_linear(x_db: float) -> float:
    """10^(x_db/10); inf where that overflows a float."""
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        return math.inf


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

def _size(d: dict, key: str) -> int:
    """An array size from a scenario file: an exact integer, not a boolean."""
    value = d[key]
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ModelError(f"scenario {key} must be an integer, got {value!r}")


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
        if self.clutter_powers.size == 1:
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
        """Build from the file schema (angles in degrees, powers in dB).

        A missing key, a value of the wrong type or an array size that is not
        an exact integer (a fraction or a boolean) raises ``ModelError``.
        """
        if not isinstance(d, dict):
            raise ModelError(f"scenario must be a JSON object, got {type(d).__name__}")
        try:
            fields = dict(
                n_tx=_size(d, "n_tx"),
                n_rx=_size(d, "n_rx"),
                n_rf=_size(d, "n_rf"),
                code_len=_size(d, "code_len"),
                target_mean_angle=math.radians(d["target_mean_angle_deg"]),
                target_uncertainty=math.radians(d["target_uncertainty_deg"]),
                target_grid_spacing=math.radians(d.get("target_grid_spacing_deg", 0.5)),
                target_power=db_to_linear(d["target_power_db"]),
                clutter_angles=np.radians(d["clutter_angles_deg"]),
                clutter_powers=[db_to_linear(float(p))     # one value: every scatterer
                                for p in np.atleast_1d(d["clutter_powers_db"])],
                noise_power=db_to_linear(d["noise_power_db"]),
            )
        except KeyError as exc:
            raise ModelError(f"scenario lacks the key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ModelError(f"scenario holds a value of the wrong type: {exc}") from exc
        return cls(**fields)

    @classmethod
    def from_json(cls, path: str | Path) -> "Scenario":
        with open(path) as fh:
            try:
                d = json.load(fh)
            except ValueError as exc:          # also undecodable bytes
                raise ModelError(f"scenario file {str(path)!r} is not JSON: {exc}") from exc
        return cls.from_dict(d)

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


def _row_power(scenario: Scenario, phi_c: np.ndarray) -> float:
    return float(clutter_load(scenario, phi_c)) + scenario.noise_power


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
    row0 = _row_power(scenario, phi_c)
    rq0 = q.alpha * q.beta * L * row0
    rq1 = q.alpha * q.beta * L * (row0 + scenario.target_power * phi_t / n_r)

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


@dataclass(frozen=True)
class LowRankCovariances:
    """Both hypothesis covariances in one orthonormal steering basis per target angle.

    For target angle i the steering U_i = [a_t,i, A_c] = Q_i R_i (thin QR), with
    k = min(K + 1, N_r) orthonormal columns in Q_i, and
        R0   = c0 (I - Q_i Q_i^H)    + Q_i C0_i Q_i^H,
        R1_i = c1[i] (I - Q_i Q_i^H) + Q_i C1_i Q_i^H,
    with the k x k cores C0_i = c0 I + R_i diag(g0) R_i^H (g0 is 0 in the
    target's column) and C1_i = c1[i] I + R_i diag(g1_i) R_i^H.  R has the
    eigenvalues of its core, plus c repeated N_r - k times when k < N_r.
    """

    basis: np.ndarray              # Q_i, (n, N_r, k)
    core0: np.ndarray              # C0_i, (n, k, k)
    core1: np.ndarray              # C1_i, (n, k, k)
    # received variance per antenna and snapshot before quantization, the
    # quantizer's gain control: without the target, and with it at each angle
    row0: float
    row1: np.ndarray               # (n,)
    c0: float
    c1: np.ndarray                 # (n,)

    def lrt_form(self, i: int, L: int) -> tuple[np.ndarray, np.ndarray, float]:
        """L*(R0^-1 - R1_i^-1) as gamma*I + G^H diag(w) G, returned as (G, w, gamma).

        In the basis, R^-1 = (I - Q Q^H)/c + Q C^-1 Q^H, so the difference is
        gamma*I + Q H Q^H with H = L (C0^-1 - C1^-1) - gamma*I = V diag(w) V^H
        and G = (Q V)^H, k rows: y^H M y = gamma*||y||^2 + sum_k w_k |(G y)_k|^2
        needs no N_r x N_r matrix.  gamma = L (1/c0 - 1/c1) when k < N_r; when
        k = N_r the basis spans the array, Q Q^H = I and gamma = 0.
        """
        Q = self.basis[i]
        n_r, k = Q.shape
        gamma = float(L * (1.0 / self.c0 - 1.0 / self.c1[i])) if k < n_r else 0.0
        H = L * (np.linalg.inv(self.core0[i]) - np.linalg.inv(self.core1[i])) - gamma * np.eye(k)
        w, V = np.linalg.eigh(H)
        return (Q @ V).conj().T, w, gamma


def low_rank_covariances(scenario: Scenario, T: np.ndarray, q: QuantizationModel,
                         thetas) -> LowRankCovariances:
    """The two hypothesis covariances of ``hypothesis_covariances`` at each target
    angle in ``thetas``, as k x k cores in an orthonormal steering basis.

    Raises ``IllConditionedModelError`` where the dense check would, from the
    exact condition number of each covariance (see ``MAX_CONDITION``).
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    n, K, n_r, L = thetas.size, scenario.n_clutter, scenario.n_rx, scenario.code_len
    a2L = q.alpha ** 2 * L
    phi_c = beampattern_powers(T, scenario.clutter_angles)
    phi_t = beampattern_powers(T, thetas)
    row0 = _row_power(scenario, phi_c)
    row1 = row0 + scenario.target_power * phi_t / n_r
    c0 = a2L * scenario.noise_power + q.alpha * q.beta * L * row0
    c1 = a2L * scenario.noise_power + q.alpha * q.beta * L * row1

    steering = np.empty((n, n_r, K + 1), dtype=complex)
    steering[:, :, 0] = steering_matrix(thetas, n_r).T
    steering[:, :, 1:] = steering_matrix(scenario.clutter_angles, n_r)
    basis, r = np.linalg.qr(steering)
    k = basis.shape[2]
    g0 = np.concatenate(([0.0], a2L * scenario.clutter_powers * phi_c))
    g1 = np.column_stack((a2L * scenario.target_power * phi_t, np.tile(g0[1:], (n, 1))))
    r_h = r.conj().transpose(0, 2, 1)
    core0 = c0 * np.eye(k) + (r * g0) @ r_h
    core1 = c1[:, None, None] * np.eye(k) + (r * g1[:, None, :]) @ r_h

    # R0's spectrum is the same at every angle, so one of its cores is checked
    for c, core in ((c0, core0[:1]), (c1, core1)):
        s = np.linalg.eigvalsh(core)
        low, top = s[:, 0], s[:, -1]
        if k < n_r:
            low, top = np.minimum(low, c), np.maximum(top, c)
        cond = top / np.maximum(low, 1e-300)
        if np.any((low <= 0.0) | (cond > MAX_CONDITION)):
            raise IllConditionedModelError(
                f"covariance condition number {np.max(cond):.3e} exceeds {MAX_CONDITION:.0e}")
    return LowRankCovariances(basis=basis, core0=core0, core1=core1, row0=row0, row1=row1,
                              c0=c0, c1=c1)


def _divergence_terms(x: np.ndarray) -> np.ndarray:
    """x - 1 - log x, one eigenvalue's share of the Gaussian KL divergence.

    It is >= 0 as computed: a faithfully rounded log1p(u) never exceeds u, and
    below x = 1/2 the value exceeds 0.19.
    """
    u = x - 1.0
    log_x = np.log(x)
    np.log1p(u, out=log_x, where=x >= 0.5)      # there u is exact
    return u - log_x


def relative_entropies(scenario: Scenario, T: np.ndarray, q: QuantizationModel,
                       thetas) -> np.ndarray:
    """Relative entropy D at each target angle in ``thetas``, without N_r x N_r work.

    D = sum (x - 1 - log x) over the eigenvalues x of R1^-1/2 R0 R1^-1/2: those
    of C1^-1/2 C0 C1^-1/2 in the basis of ``low_rank_covariances``, plus c0/c1
    repeated N_r - k times outside it.  Every term is >= 0, so nothing cancels.
    """
    f = low_rank_covariances(scenario, T, q, thetas)
    w = np.linalg.inv(np.linalg.cholesky(f.core1))   # C1^-1/2 up to a unitary factor
    x = np.linalg.eigvalsh(w @ f.core0 @ w.conj().transpose(0, 2, 1))
    outside = scenario.n_rx - f.basis.shape[2]
    return np.sum(_divergence_terms(x), axis=1) + outside * _divergence_terms(f.c0 / f.c1)


def _logdet_and_eigs(r: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(r)
    if w[0] <= 0.0 or w[-1] / w[0] > MAX_CONDITION:
        raise IllConditionedModelError(
            f"covariance condition number {w[-1] / max(w[0], 1e-300):.3e} exceeds {MAX_CONDITION:.0e}")
    return float(np.sum(np.log(w))), w, v


def relative_entropy(cov: HypothesisCovariances) -> float:
    """Kullback-Leibler divergence between the two zero-mean Gaussian hypotheses.

    Returns -log|R0| + log|R1| + Tr(R1^-1 R0) - N_r, which is >= 0 for any
    valid covariance pair.  This dense oracle of ``relative_entropies`` sums
    N_r log-eigenvalues per covariance, so its absolute error is about
    N_r*eps*kappa at condition number kappa: up to 3e-4 near ``MAX_CONDITION``.
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
    return float(np.mean(relative_entropies(scenario, T, q, scenario.target_grid())))
