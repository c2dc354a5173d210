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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Normalized MSE of the minimum-distortion scalar quantizer on a unit
# Gaussian source, indexed by bit depth.  The linearized quantizer model uses
# gain alpha = 1 - beta plus uncorrelated noise with variance
# alpha*beta*diag(input covariance).
ADC_DISTORTION = {1: 0.3634, 2: 0.1175, 3: 0.03454, 4: 0.009497, 5: 0.002499}

# Covariances worse conditioned than this are refused rather than silently
# inverted.  ``low_rank_covariances`` reads R0's eigenvalues from its clutter
# core, plus c0 outside the clutter span, and R1's from an m x m block per
# target angle, plus c1 outside it, so the exact condition number needs no
# N_r x N_r eigensolve.
MAX_CONDITION = 1e12

# Most points a target grid may have; the built-in grids have 9 and 17.  Each
# point is a profile angle, so the design's P x P steering Gram and every
# stage-1 sweep (P coordinates, each scored over P points) grow with the count.
MAX_TARGET_GRID_POINTS = 1000


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

def steering_matrix(thetas: np.ndarray, n: int) -> np.ndarray:
    """Unit-norm responses of an n-element half-wavelength ULA, one column per angle.

    Element m of the column for theta is (1/sqrt(n)) * exp(-1j*pi*m*sin(theta));
    theta is measured from broadside, in radians.
    """
    if n < 1:
        raise ModelError(f"array needs at least one element, got {n}")
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
    degrees and dB (see :meth:`from_dict`).  Unit conversions do not
    round-trip exactly, so a scenario read from a file keeps the values as
    read in ``file_values`` for ``to_dict`` and ``content_hash``; one built
    in code, or by ``dataclasses.replace``, has none.
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
    file_values: dict | None = field(default=None, init=False, repr=False, compare=False)

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
        # bounds each steered gain and white level: alpha <= 1 and phi <= n_rf
        powers = map(float, (self.target_power, self.noise_power, self.noise_power,
                             *self.clutter_powers))
        if not math.isfinite(self.code_len * self.n_rf * sum(powers)):
            raise ModelError("powers overflow: a steered gain or white level is not finite")
        if self.target_power < 0:
            raise ModelError("target power must be >= 0")
        if self.noise_power <= 0 or np.any(self.clutter_powers <= 0):
            raise ModelError("noise and clutter powers must be > 0")
        if self.target_uncertainty < 0 or self.target_grid_spacing <= 0:
            raise ModelError("uncertainty must be >= 0 and grid spacing > 0")
        half = self.target_uncertainty / 2.0          # the grid's ends hold its every point
        angles = np.concatenate(([self.target_mean_angle - half, self.target_mean_angle + half],
                                 self.clutter_angles))
        if np.any(np.abs(angles) > math.pi / 2 + 1e-12):
            raise ModelError("target grid and clutter angles must lie in [-pi/2, pi/2]")
        # target_grid's count is round(uncertainty / spacing) + 1; the ratio is inf on overflow
        if not self.target_uncertainty / self.target_grid_spacing < MAX_TARGET_GRID_POINTS - 0.5:
            raise ModelError(f"target grid spacing too fine: over {MAX_TARGET_GRID_POINTS} points")
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
        sizes = ("n_tx", "n_rx", "n_rf", "code_len")
        try:
            fields = dict(
                **{key: _size(d, key) for key in sizes},
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
        sc = cls(**fields)
        powers = [float(p) for p in np.atleast_1d(d["clutter_powers_db"])]
        sc.file_values = dict(
            {key: fields[key] for key in sizes},
            **{key: float(d[key]) for key in ("target_mean_angle_deg", "target_uncertainty_deg",
                                              "target_power_db", "noise_power_db")},
            target_grid_spacing_deg=float(d.get("target_grid_spacing_deg", 0.5)),
            clutter_angles_deg=np.atleast_1d(np.asarray(d["clutter_angles_deg"], float)).tolist(),
            clutter_powers_db=powers * sc.n_clutter if len(powers) == 1 else powers)
        return sc

    @classmethod
    def from_json(cls, path: str | Path) -> "Scenario":
        with open(path) as fh:
            try:
                d = json.load(fh)
            except ValueError as exc:          # also undecodable bytes
                raise ModelError(f"scenario file {str(path)!r} is not JSON: {exc}") from exc
        return cls.from_dict(d)

    def to_dict(self) -> dict:
        if self.file_values is not None:
            return dict(self.file_values)
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
    # bit for bit exp(1j * phases) / sqrt(n_tx), which takes the sine at 0 + phases
    # (-0 becomes +0) and divides by multiplying both parts with 1 / sqrt(n_tx)
    phases = np.asarray(phases)
    T, scale = np.empty(phases.shape, dtype=complex), 1.0 / math.sqrt(n_tx)
    np.multiply(np.cos(phases), scale, out=T.real)
    np.multiply(np.sin(phases + 0.0), scale, out=T.imag)
    return T


def random_unit_modulus(n_tx: int, n_rf: int, rng: np.random.Generator) -> np.ndarray:
    """Beamformer with i.i.d. uniform random phases."""
    return unit_modulus(rng.uniform(0.0, 2.0 * np.pi, size=(n_tx, n_rf)), n_tx)


def is_unit_modulus(T: np.ndarray, n_tx: int, tol: float = 1e-12) -> bool:
    return bool(np.all(np.abs(np.abs(T) - 1.0 / np.sqrt(n_tx)) <= tol))


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


def white_levels(scenario: Scenario, q: QuantizationModel, phi_c, phi_t):
    """(row0, row1, c0, c1, delta, g_t, g_c) of the no-target and target hypotheses.

    row is the received variance per antenna and snapshot before
    quantization, the quantizer's gain control, and c = alpha^2 L noise +
    alpha beta L row the white level that each covariance adds to its steered
    terms.  delta = c1 - c0 = alpha beta L P_t phi_t / N_r comes from the
    target's power: the subtraction cancels as the target fades.  g_t =
    alpha^2 L P_t phi_t and g_c = alpha^2 L P_c phi_c are the steered gains of
    the target and of each clutter direction.  Broadcasts over the leading
    axes of ``phi_c`` (clutter last) and ``phi_t``.
    """
    L, a2L = scenario.code_len, q.alpha ** 2 * scenario.code_len
    row0 = np.sum(scenario.clutter_powers * phi_c, axis=-1) / scenario.n_rx + scenario.noise_power
    target_load = scenario.target_power * phi_t / scenario.n_rx
    row1 = row0 + target_load
    c0 = q.alpha ** 2 * L * scenario.noise_power + q.alpha * q.beta * L * row0
    c1 = q.alpha ** 2 * L * scenario.noise_power + q.alpha * q.beta * L * row1
    delta = q.alpha * q.beta * L * target_load
    g_t, g_c = a2L * scenario.target_power * phi_t, a2L * scenario.clutter_powers * phi_c
    return row0, row1, c0, c1, delta, g_t, g_c


def hypothesis_covariances(scenario: Scenario, T: np.ndarray, q: QuantizationModel,
                           theta_t: float) -> HypothesisCovariances:
    """Assemble the two N_r x N_r Hermitian covariances for a candidate target angle.

    The quantizer-noise covariance is alpha*beta*diag(R_Y); for a ULA the
    diagonal is the constant row power, so each hypothesis adds a scaled
    identity alpha*beta*L*row power.
    """
    n_r, a2L = scenario.n_rx, q.alpha ** 2 * scenario.code_len
    A_c = steering_matrix(scenario.clutter_angles, n_r)
    phi_c = beampattern_powers(T, scenario.clutter_angles)
    phi_t = float(beampattern_powers(T, [theta_t])[0])
    _, _, c0, c1, *_ = white_levels(scenario, q, phi_c, phi_t)
    base = a2L * (A_c * (scenario.clutter_powers * phi_c)) @ A_c.conj().T
    a_t = steering_matrix(theta_t, n_r)[:, 0]
    r0 = base + c0 * np.eye(n_r)
    r1 = base + a2L * scenario.target_power * phi_t * np.outer(a_t, a_t.conj()) + c1 * np.eye(n_r)
    # enforce exact Hermitian symmetry against accumulated rounding
    r0 = 0.5 * (r0 + r0.conj().T)
    r1 = 0.5 * (r1 + r1.conj().T)
    return HypothesisCovariances(r0=r0, r1=r1)


@dataclass(frozen=True)
class LowRankCovariances:
    """R0 factored once, and R1 at each target angle as its difference from R0.

    A thin QR A_c = Q_c R_c of the clutter steering and the eigenvectors V of
    c0 I + R_c diag(g_c) R_c^H give R0 = c0 (I - W W^H) + W diag(lam) W^H, W =
    Q_c V.  R1_i - R0 = delta_i I + g_i a_i a_i^H, so in the orthonormal basis
    B_i = [W, q_i] (q_i the unit part of a_i outside span(W), absent when W
    spans the array) R0^-1/2 (R1_i - R0) R0^-1/2 is S_i = delta_i diag(1/levels)
    + g_i u_i u_i^H with u_i = R0^-1/2 a_i, and delta_i / c0 outside B_i.  S is
    proportional to the target's power: its eigenvalues keep relative accuracy.
    """

    clutter_basis: np.ndarray      # W, (N_r, min(K, N_r))
    levels: np.ndarray             # R0's eigenvalues in B_i: lam, then c0 with q_i, (m,)
    target_dirs: np.ndarray        # q_i, (n, N_r, 1), or (n, N_r, 0) when W spans
    change: np.ndarray             # S_i, (n, m, m)
    row0: float                    # the quantizer's gain control (``white_levels``)
    row1: np.ndarray               # (n,)
    c0: float
    c1: np.ndarray                 # (n,)
    delta: np.ndarray              # c1 - c0 from the target's power, (n,)

    def lrt_form(self, i: int, L: int) -> tuple[np.ndarray, np.ndarray, float]:
        """L*(R0^-1 - R1_i^-1) as gamma*I + G^H diag(w) G, returned as (G, w, gamma).

        R1 = R0^1/2 (I + S) R0^1/2, so the difference is L R0^-1/2 S(I + S)^-1
        R0^-1/2 = gamma*I + B H B^H, with H = L diag(levels)^-1/2 S(I + S)^-1
        diag(levels)^-1/2 - gamma*I = V diag(w) V^H and G = (B V)^H, m rows.
        gamma = L (1/c0 - 1/c1) when m < N_r, and 0 when B spans the array.
        """
        B = np.concatenate((self.clutter_basis, self.target_dirs[i]), axis=1)
        n_r, m = B.shape
        gamma = float(L * (1.0 / self.c0 - 1.0 / self.c1[i])) if m < n_r else 0.0
        S, scale = self.change[i], 1.0 / np.sqrt(self.levels)
        H = L * scale[:, None] * np.linalg.solve(np.eye(m) + S, S) * scale - gamma * np.eye(m)
        w, V = np.linalg.eigh(H)
        return (B @ V).conj().T, w, gamma


def low_rank_covariances(scenario: Scenario, T: np.ndarray, q: QuantizationModel,
                         thetas) -> LowRankCovariances:
    """The two hypothesis covariances of ``hypothesis_covariances`` at each target
    angle in ``thetas``, R0 factored once and R1 as its difference.

    Raises ``IllConditionedModelError`` where the dense check would, from the
    exact condition number of each covariance (see ``MAX_CONDITION``).
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    n_r = scenario.n_rx
    phi_c = beampattern_powers(T, scenario.clutter_angles)
    phi_t = beampattern_powers(T, thetas)
    row0, row1, c0, c1, delta, g_t, g_c = white_levels(scenario, q, phi_c, phi_t)
    if not np.all(np.isfinite(np.concatenate((g_c, g_t, c1)))):    # eigh would fail
        raise IllConditionedModelError("covariance is not finite: a power overflows")
    q_c, r_c = np.linalg.qr(steering_matrix(scenario.clutter_angles, n_r))
    lam, v = np.linalg.eigh(c0 * np.eye(r_c.shape[0]) + (r_c * g_c) @ r_c.conj().T)
    W = q_c @ v
    p, r = 0.0, steering_matrix(thetas, n_r)
    for _ in range(2):      # twice, so q_i stays orthogonal to W where a_i nearly lies in it
        step = W.conj().T @ r
        p, r = p + step, r - W @ step
    levels, target_dirs = lam, np.zeros((thetas.size, n_r, 0))
    if W.shape[1] < n_r:
        rho = np.linalg.norm(r, axis=0)
        target_dirs = (r / rho).T[:, :, None]
        p, levels = np.vstack((p, rho)), np.append(lam, c0)
    m, x = levels.size, p.T                            # x_i: a_i in B_i
    diff = np.einsum("n,ni,nj->nij", g_t, x, x.conj())
    diff[:, range(m), range(m)] += delta[:, None]      # R1_i - R0 in B_i
    # R0's eigenvalues are the levels; R1's those of its block, and c1 outside B_i
    spectrum1 = np.linalg.eigvalsh(diff + np.diag(levels))
    if m < n_r:
        spectrum1 = np.column_stack((spectrum1, c1))
    for spectrum in (levels[None, :], spectrum1):
        low, top = spectrum.min(axis=1), spectrum.max(axis=1)
        cond = top / np.maximum(low, 1e-300)
        if np.any((low <= 0.0) | (cond > MAX_CONDITION)):
            raise IllConditionedModelError(
                f"covariance condition number {np.max(cond):.3e} exceeds {MAX_CONDITION:.0e}")
    return LowRankCovariances(clutter_basis=W, levels=levels, target_dirs=target_dirs,
                              change=diff / np.sqrt(levels)[:, None] / np.sqrt(levels),
                              row0=row0, row1=row1, c0=c0, c1=c1, delta=delta)


def kl_terms(s) -> np.ndarray:
    """log1p(s) - s/(1 + s), one direction's share of the Gaussian KL divergence
    where R1 exceeds R0 by the relative change s (x - 1 - log x at x = 1/(1 + s)).

    They cancel to order s^2, so below |s| = 1e-2 it sums the series s^2/2 -
    2s^3/3 + 3s^4/4 - ... to s^9 (the rest is < 2e-16 of it).  0-d in, 0-d out.
    """
    s = np.asarray(s, dtype=float)
    series = np.full_like(s, -8 / 9)
    for c in (7 / 8, -6 / 7, 5 / 6, -4 / 5, 3 / 4, -2 / 3, 1 / 2):
        series *= s
        series += c
    return np.where(np.abs(s) < 1e-2, series * (s * s), np.log1p(s) - s / (1.0 + s))


def relative_entropies(scenario: Scenario, T: np.ndarray, q: QuantizationModel,
                       thetas) -> np.ndarray:
    """Relative entropy D at each target angle in ``thetas``, without N_r x N_r work.

    D = sum kl_terms(s) over the eigenvalues s of S in ``low_rank_covariances``,
    plus N_r - m copies of kl_terms(delta / c0) outside its basis: terms >= 0
    that shrink as the target's power squared, with nothing to cancel.
    """
    f = low_rank_covariances(scenario, T, q, thetas)
    s = np.linalg.eigvalsh(f.change)
    return np.sum(kl_terms(s), axis=1) + (scenario.n_rx - s.shape[1]) * kl_terms(f.delta / f.c0)


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
    logdet0, _, _ = _logdet_and_eigs(cov.r0)
    logdet1, w1, v1 = _logdet_and_eigs(cov.r1)
    rotated = v1.conj().T @ cov.r0 @ v1
    trace_term = float(np.sum(np.real(np.diag(rotated)) / w1))
    return logdet1 - logdet0 + trace_term - cov.r0.shape[0]


def averaged_relative_entropy(scenario: Scenario, T: np.ndarray, q: QuantizationModel) -> float:
    """Mean relative entropy over the discretized target-angle grid.

    Normalizing by the grid cardinality keeps the single-point case equal to
    the plain relative entropy; any positive constant gives the same argmax
    over beamformers.
    """
    return float(np.mean(relative_entropies(scenario, T, q, scenario.target_grid())))
