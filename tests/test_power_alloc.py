import math

import numpy as np
import pytest

from cebeam import model as M
from cebeam import power_alloc as P


def straight_line_objective(phi_t, phi_c, sc, q):
    """Independent scalar re-implementation of the large-array surrogate."""
    L, n_r, K = sc.code_len, sc.n_rx, sc.n_clutter
    a2L = q.alpha ** 2 * L
    abL = q.alpha * q.beta * L
    clutter_sum = 0.0
    for k in range(K):
        clutter_sum += sc.clutter_powers[k] * phi_c[k] / n_r
    chi = a2L * sc.noise_power + abL * (sc.target_power * phi_t / n_r + clutter_sum + sc.noise_power)
    varpi = a2L * sc.noise_power + abL * (clutter_sum + sc.noise_power)
    log_h1 = n_r * math.log(chi) + math.log(1.0 + a2L * sc.target_power * phi_t / chi)
    log_h0 = n_r * math.log(varpi)
    for k in range(K):
        g = a2L * sc.clutter_powers[k] * phi_c[k]
        log_h1 += math.log(1.0 + g / chi)
        log_h0 += math.log(1.0 + g / varpi)
    gamma, eta = chi, varpi
    trace = eta / (gamma + a2L * sc.target_power * phi_t)
    for k in range(K):
        g = a2L * sc.clutter_powers[k] * phi_c[k]
        trace += (eta + g) / (gamma + g)
    trace += eta / gamma * (n_r - K - 1)
    return log_h1 - log_h0 + trace - n_r


class TestAsymptoticObjective:
    def test_matches_straight_line_reimplementation(self, tiny_scenario):
        rng = np.random.default_rng(0)
        q = M.quantization_model(1)
        for _ in range(25):
            phi_t = rng.uniform(0, 1)
            phi_c = rng.uniform(0, 1, tiny_scenario.n_clutter)
            mine = float(P.asymptotic_objective(phi_t, phi_c, tiny_scenario, q))
            ref = straight_line_objective(phi_t, phi_c, tiny_scenario, q)
            assert mine == pytest.approx(ref, rel=1e-12)

    def test_no_clutter_ideal_adc_baseline(self):
        sc = M.Scenario(n_tx=16, n_rx=32, n_rf=2, code_len=8, target_mean_angle=0.0,
                        target_uncertainty=0.0, target_power=1.0,
                        clutter_angles=np.zeros(0), clutter_powers=np.zeros(0),
                        noise_power=1.0)
        q = M.quantization_model("ideal")
        base = float(P.asymptotic_objective(0.0, np.zeros(0), sc, q))
        assert base == pytest.approx(0.0, abs=1e-12)
        vals = [float(P.asymptotic_objective(p, np.zeros(0), sc, q))
                for p in (0.1, 0.3, 0.6, 1.0)]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_exact_relative_entropy_recovered_without_clutter(self):
        # with one grid point and no clutter the steering Gram is exactly the
        # identity, so the surrogate equals the matrix-based divergence
        sc = M.Scenario(n_tx=16, n_rx=12, n_rf=2, code_len=8, target_mean_angle=0.2,
                        target_uncertainty=0.0, target_power=3.0,
                        clutter_angles=np.zeros(0), clutter_powers=np.zeros(0),
                        noise_power=1.5)
        q = M.quantization_model(2)
        rng = np.random.default_rng(1)
        T = M.random_unit_modulus(sc.n_tx, sc.n_rf, rng)
        phi_t = M.beampattern_power(T, sc.target_mean_angle)
        exact = M.relative_entropy(M.hypothesis_covariances(sc, T, q, sc.target_mean_angle))
        surrogate = float(P.asymptotic_objective(phi_t, np.zeros(0), sc, q))
        assert surrogate == pytest.approx(exact, rel=1e-10)

    def test_broadcasting_matches_scalar_calls(self, tiny_scenario):
        q = M.quantization_model(3)
        cands = np.linspace(0, 1, 11)
        phi_c = np.array([0.4, 0.1])
        vec = P.asymptotic_objective(cands, phi_c, tiny_scenario, q)
        for i, c in enumerate(cands):
            assert vec[i] == pytest.approx(
                float(P.asymptotic_objective(c, phi_c, tiny_scenario, q)), rel=1e-14)


class TestBcd:
    def test_single_target_matches_exhaustive_scan(self):
        sc = M.Scenario(n_tx=16, n_rx=32, n_rf=2, code_len=8, target_mean_angle=0.0,
                        target_uncertainty=0.0, target_power=1.0,
                        clutter_angles=np.zeros(0), clutter_powers=np.zeros(0),
                        noise_power=1.0)
        q = M.quantization_model(1)
        res = P.bcd_power_allocation(sc, q, grid_step=0.05)
        cands = np.linspace(0, 1, 21)
        vals = [float(P.asymptotic_objective(c, np.zeros(0), sc, q)) for c in cands]
        assert res.profile.target_levels[0] == pytest.approx(cands[int(np.argmax(vals))])

    def test_trace_non_decreasing(self, desk_scenario):
        res = P.bcd_power_allocation(desk_scenario, M.quantization_model(1))
        assert np.all(np.diff(res.trace) >= 0.0)

    def test_levels_on_grid_and_in_box(self, desk_scenario):
        step = 0.02
        res = P.bcd_power_allocation(desk_scenario, M.quantization_model(2), grid_step=step)
        levels = res.profile.all_levels()
        assert np.all(levels >= 0.0) and np.all(levels <= 1.0)
        np.testing.assert_allclose(levels, np.round(levels / step) * step, atol=1e-12)

    def test_converged_profile_is_fixed_point(self, desk_scenario):
        q = M.quantization_model(1)
        res = P.bcd_power_allocation(desk_scenario, q)
        assert res.converged
        again = P.bcd_power_allocation(desk_scenario, q)
        np.testing.assert_array_equal(res.profile.all_levels(), again.profile.all_levels())

    def test_order_invariance_of_converged_objective(self, desk_scenario):
        # reversed-coordinate sweep implemented against the same objective
        q = M.quantization_model(1)
        forward = P.bcd_power_allocation(desk_scenario, q)

        grid = desk_scenario.target_grid()
        cands = np.linspace(0.0, 1.0, 101)
        t_lvl = np.full(grid.size, 0.5)
        c_lvl = np.full(desk_scenario.n_clutter, 0.5)
        current = float(P.profile_objective(t_lvl, c_lvl, desk_scenario, q))
        for _ in range(50):
            before = current
            for k in reversed(range(desk_scenario.n_clutter)):
                cand = np.tile(c_lvl, (101, 1)); cand[:, k] = cands
                vals = P.profile_objective(np.tile(t_lvl, (101, 1)), cand, desk_scenario, q)
                k_best = int(np.argmax(vals >= vals.max() - 1e-9 * (1 + abs(vals.max()))))
                c_lvl[k] = cands[k_best]; current = float(vals[k_best])
            for i in reversed(range(grid.size)):
                cand = np.tile(t_lvl, (101, 1)); cand[:, i] = cands
                vals = P.profile_objective(cand, np.tile(c_lvl, (101, 1)), desk_scenario, q)
                i_best = int(np.argmax(vals >= vals.max() - 1e-9 * (1 + abs(vals.max()))))
                t_lvl[i] = cands[i_best]; current = float(vals[i_best])
            if current - before < 1e-4:
                break
        assert current == pytest.approx(forward.objective, rel=1e-6)

    def test_flagship_structure_targets_up_clutter_down(self, flagship_scenario):
        res = P.bcd_power_allocation(flagship_scenario, M.quantization_model(1))
        assert np.all(res.profile.target_levels >= 0.9)
        assert np.all(res.profile.clutter_levels <= 0.1)

    def test_bad_grid_step_rejected(self, desk_scenario):
        with pytest.raises(M.ModelError):
            P.bcd_power_allocation(desk_scenario, M.quantization_model(1), grid_step=0.7)


class TestPowerProfile:
    def test_levels_outside_box_rejected(self):
        with pytest.raises(M.ModelError):
            P.PowerProfile(np.array([0.0]), np.array([1.2]), np.zeros(0), np.zeros(0))

    def test_round_trip(self, desk_scenario):
        prof = P.PowerProfile.uniform(desk_scenario, 1.0, 0.0)
        back = P.PowerProfile.from_dict(prof.to_dict())
        np.testing.assert_allclose(back.all_angles(), prof.all_angles(), atol=1e-12)
        np.testing.assert_array_equal(back.all_levels(), prof.all_levels())
