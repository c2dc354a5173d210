"""The Monte Carlo detection engine against the exact law of its statistic.

With ideal ADCs and a trial's Doppler frequencies fixed, vec(Y) is
CN(0, C) with C = sigma^2 I + sum_k p_k u_k u_k^H and
u_k = (ramp_k * b_k) kron a_r,k, where b_k is source k's transmitted
waveform row and ramp_k its Doppler ramp.  The statistic
sum_l y_l^H M y_l = vec(Y)^H (I_L kron M) vec(Y) is then a generalized
chi-square: sum_j lambda_j |z_j|^2 with z_j i.i.d. CN(0, 1) and lambda the
eigenvalues of C^1/2 (I_L kron M) C^1/2.  Its tail comes from Imhof's
integral (Imhof, Biometrika 1961), and the law of the statistic is the
average of these conditional tails over the uniform Doppler draws.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, special

from cebeam import model as M
from cebeam import simulate as SIM


def imhof_exceedance(weights: np.ndarray, x: float) -> float:
    """P(sum_j weights_j |z_j|^2 > x) for i.i.d. z_j ~ CN(0, 1), weights of any sign.

    |z|^2 is chi-square with 2 degrees of freedom over 2, so Imhof's formula
    applies with weights lambda_j / 2, each with 2 degrees of freedom.
    """
    lam = np.asarray(weights, dtype=float) / 2.0

    def integrand(u):
        if u == 0.0:                   # sin(theta(u)) / u as u -> 0
            return float(np.sum(lam) - 0.5 * x)
        theta = np.sum(np.arctan(lam * u)) - 0.5 * x * u
        log_rho = 0.5 * np.sum(np.log1p((lam * u) ** 2))
        return math.sin(theta) / (u * math.exp(log_rho))

    value, _ = integrate.quad(integrand, 0.0, np.inf, limit=400, epsabs=1e-11)
    return 0.5 + value / math.pi


def statistic_weights(scenario, T, theta_t, freqs, lrt):
    """Eigenvalues of C^1/2 (I_L kron M) C^1/2 for a trial with Dopplers ``freqs``.

    Built from the signal model alone: steering vectors, the transmitted
    waveforms A_t^T T S and the Doppler ramps, none of the engine's code.
    """
    angles = list(scenario.clutter_angles)
    powers = list(scenario.clutter_powers)
    if theta_t is not None:
        angles.insert(0, theta_t)
        powers.insert(0, scenario.target_power)
    n_r, L = scenario.n_rx, scenario.code_len
    A_r = M.steering_matrix(np.asarray(angles), n_r)
    B = M.steering_matrix(np.asarray(angles), scenario.n_tx).T @ (
        T @ SIM.lfm_waveforms(scenario.n_rf, L))
    ramps = np.exp(2j * np.pi * np.outer(freqs, np.arange(L)))
    U = np.column_stack([np.kron(ramps[k] * B[k], A_r[:, k]) for k in range(len(angles))])
    C = scenario.noise_power * np.eye(n_r * L) + (U * np.asarray(powers)) @ U.conj().T
    chol = np.linalg.cholesky(C)
    return np.linalg.eigvalsh(chol.conj().T @ np.kron(np.eye(L), lrt) @ chol)


def exact_exceedance(scenario, T, theta_t, lrt, x, dopplers):
    """P(statistic > x) averaged over Doppler draws, with the average's standard error."""
    n_src = scenario.n_clutter + (theta_t is not None)
    tails = np.array([imhof_exceedance(statistic_weights(scenario, T, theta_t, f[:n_src], lrt), x)
                      for f in dopplers])
    return float(np.mean(tails)), float(np.std(tails, ddof=1) / math.sqrt(len(tails)))


class TestImhof:
    @pytest.mark.parametrize("n, scale, x", [(2, 1.0, 0.7), (4, 0.5, 3.0), (9, 2.0, 10.0)])
    def test_equal_weights_are_gamma(self, n, scale, x):
        assert imhof_exceedance(np.full(n, scale), x) == pytest.approx(
            special.gammaincc(n, x / scale), abs=1e-9)

    def test_mixed_signs_match_sampling(self):
        rng = np.random.default_rng(0)
        weights = np.array([2.0, 1.0, 0.5, -0.3, -1.2])
        z = rng.standard_normal((200_000, 5, 2))
        q = (0.5 * np.sum(z ** 2, axis=2)) @ weights
        for x in (-1.0, 0.5, 3.0):
            p = np.mean(q > x)
            assert imhof_exceedance(weights, x) == pytest.approx(
                p, abs=4 * math.sqrt(p * (1 - p) / q.size))


def test_ideal_adc_detection_matches_exact_law(tiny_scenario):
    """The engine's pd and false-alarm rate against the exact law, within 4 sigma.

    At the engine's own threshold tau: its pd is a binomial estimate of
    P1(tau) and its empirical pfa, on a disjoint run, one of P0(tau).  tau is
    the (1 - pfa) quantile of a calibration run, so P0(tau) itself lies
    within a binomial error of pfa: equivalently, the calibration run's
    false-alarm rate at the exact threshold is pfa.  The exact values average
    64 Doppler draws; sigma adds their standard error to the binomial one.
    Only the exact law sees the statistic's absolute scale, the noise scale
    and the steering, so it catches errors in any of them.  The curve's
    second point measures its pd on the first point's target draws with the
    echo rescaled, so its check is the one that sees the rescaling's scale.
    """
    sc = tiny_scenario
    T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(30))
    pfa, trials = 0.05, 20_000
    curve = SIM.detection_curve(T, sc, "ideal", (8.0, 3.0), pfa, trials, seed=31)
    dopplers = np.random.default_rng(32).uniform(0.0, 1.0, (64, sc.n_clutter + 1))

    def sigma(p, se):
        return math.sqrt(p * (1.0 - p) / trials + se ** 2)

    for snr_db, pt in zip((8.0, 3.0), curve._points):
        sc_snr = replace(sc, target_power=sc.noise_power * 10.0 ** (snr_db / 10.0))
        cov = M.hypothesis_covariances(sc_snr, T, M.quantization_model("ideal"),
                                       sc.target_mean_angle)
        lrt = sc.code_len * (np.linalg.inv(cov.r0) - np.linalg.inv(cov.r1))
        p0, se0 = exact_exceedance(sc_snr, T, None, lrt, pt.threshold, dopplers)
        p1, se1 = exact_exceedance(sc_snr, T, sc.target_mean_angle, lrt, pt.threshold, dopplers)
        assert abs(pt.pd - p1) <= 4.0 * sigma(p1, se1), (snr_db, pt.pd, p1, se1)
        assert abs(pt.empirical_pfa - p0) <= 4.0 * sigma(p0, se0), (snr_db, pt.empirical_pfa, p0)
        assert abs(p0 - pfa) <= 4.0 * sigma(pfa, se0), (snr_db, p0, pfa, se0)
