import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from cebeam import model as M
from cebeam import power_alloc as P
from cebeam.pipeline import load_scenario

from oracle import beampattern_power


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


def _mp_surrogate(mp, phi_t, phi_c, sc, q) -> float:
    """The surrogate at 40 digits from the same float inputs, as
    log|R1| - log|R0| + Tr(R1^-1 R0) - N_r of the two diagonal covariances."""
    with mp.workdps(40):
        L, n_r, K = sc.code_len, sc.n_rx, sc.n_clutter
        alpha, beta = mp.mpf(q.alpha), mp.mpf(q.beta)
        a2L, noise = alpha ** 2 * L, mp.mpf(sc.noise_power)
        powers = [mp.mpf(float(p)) * mp.mpf(float(f)) for p, f in zip(sc.clutter_powers, phi_c)]
        target = mp.mpf(sc.target_power) * mp.mpf(phi_t)
        row0 = mp.fsum(powers) / n_r + noise
        c0 = a2L * noise + alpha * beta * L * row0
        c1 = a2L * noise + alpha * beta * L * (row0 + target / n_r)
        # (R0, R1) eigenvalue pairs: target, clutter, then N_r - K - 1 white directions
        pairs = [(c0, c1 + a2L * target)] + [(c0 + a2L * g, c1 + a2L * g) for g in powers]
        pairs += [(c0, c1)] * (n_r - K - 1)
        return float(mp.fsum(mp.log(r1) - mp.log(r0) + r0 / r1 - 1 for r0, r1 in pairs))


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
        phi_t = beampattern_power(T, sc.target_mean_angle)
        exact = M.relative_entropy(M.hypothesis_covariances(sc, T, q, sc.target_mean_angle))
        surrogate = float(P.asymptotic_objective(phi_t, np.zeros(0), sc, q))
        assert surrogate == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("bits", [1, 3, "ideal"])
    def test_orthogonal_steering_recovers_relative_entropy(self, bits):
        # sin(theta) on the grid 2k/N_r makes the receive steering vectors DFT
        # columns, exactly orthogonal, so with clutter too the surrogate is D
        n_r = 16
        ks = np.array([-5, -2, 3, 6])
        sc = M.Scenario(n_tx=12, n_rx=n_r, n_rf=3, code_len=8, target_mean_angle=0.0,
                        target_uncertainty=0.0, target_power=2.0,
                        clutter_angles=np.arcsin(2.0 * ks / n_r),
                        clutter_powers=np.array([5.0, 50.0, 300.0, 1000.0]), noise_power=1.0)
        A = M.steering_matrix(sc.profile_angles(), n_r)
        np.testing.assert_allclose(A.conj().T @ A, np.eye(5), atol=1e-14)
        q = M.quantization_model(bits)
        rng = np.random.default_rng(2)
        for _ in range(5):
            T = M.random_unit_modulus(sc.n_tx, sc.n_rf, rng)
            phi_t = beampattern_power(T, sc.target_mean_angle)
            phi_c = M.beampattern_powers(T, sc.clutter_angles)
            exact = M.relative_entropies(sc, T, q, sc.target_mean_angle)[0]
            surrogate = float(P.asymptotic_objective(phi_t, phi_c, sc, q))
            assert surrogate == pytest.approx(exact, rel=1e-12)

    # every case is held to 1e-13; the ids keep the per-power bounds that the
    # earlier ratio kernel needed, so each case keeps its name
    @pytest.mark.parametrize("power_db", [0.0, -30.0, -60.0],
                             ids=["0.0-1e-11", "-30.0-1e-10", "-60.0-1e-07"])
    @pytest.mark.parametrize("bits", [1, 3, "ideal"])
    @pytest.mark.parametrize("name", ["default128", "desk32"])
    def test_matches_high_precision(self, name, bits, power_db):
        """Within 1e-13 of a 40-digit reference at every target power: the
        kernel takes each direction's relative change s from the target's
        power, not from a ratio of white levels, and sums its series at small s."""
        mp = pytest.importorskip("mpmath")
        sc = replace(load_scenario(name), target_power=M.db_to_linear(power_db))
        q = M.quantization_model(bits)
        rng = np.random.default_rng(3)
        for _ in range(5):
            phi_t = rng.uniform(0.0, 1.0)
            phi_c = rng.uniform(0.0, 1.0, sc.n_clutter)
            exact = _mp_surrogate(mp, phi_t, phi_c, sc, q)
            got = float(P.asymptotic_objective(phi_t, phi_c, sc, q))
            assert abs(got - exact) <= 1e-13 * exact

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
                k_best = int(np.argmax(vals >= vals.max() - 1e-9 * abs(vals.max())))
                c_lvl[k] = cands[k_best]; current = float(vals[k_best])
            for i in reversed(range(grid.size)):
                cand = np.tile(t_lvl, (101, 1)); cand[:, i] = cands
                vals = P.profile_objective(cand, np.tile(c_lvl, (101, 1)), desk_scenario, q)
                i_best = int(np.argmax(vals >= vals.max() - 1e-9 * abs(vals.max())))
                t_lvl[i] = cands[i_best]; current = float(vals[i_best])
            if current - before <= 1e-4 * abs(current):
                break
        assert current == pytest.approx(forward.objective, rel=1e-6)

    def test_flagship_structure_targets_up_clutter_down(self, flagship_scenario):
        res = P.bcd_power_allocation(flagship_scenario, M.quantization_model(1))
        assert np.all(res.profile.target_levels >= 0.9)
        assert np.all(res.profile.clutter_levels <= 0.1)

    @pytest.mark.parametrize("bits", [1, 3, "ideal"])
    @pytest.mark.parametrize("name", ["default128", "desk32"])
    def test_profile_is_the_same_at_every_low_target_power(self, name, bits):
        # in the small-signal limit the surrogate is P_t^2 times a function of
        # the levels, and the stopping rule and the plateau margin are both
        # relative, so nothing depends on how small the target power is
        sc, q = load_scenario(name), M.quantization_model(bits)
        results = [P.bcd_power_allocation(replace(sc, target_power=M.db_to_linear(db)), q)
                   for db in (-40.0, -60.0, -80.0)]
        for res in results:
            np.testing.assert_array_equal(res.profile.target_levels, 1.0)
            np.testing.assert_array_equal(res.profile.clutter_levels, 0.0)
            assert (res.sweeps, res.converged) == (2, True)

    def test_zero_target_power_stops(self, desk_scenario):
        # the surrogate is exactly 0 for every profile: the first sweep gains
        # nothing, and a sweep that gains nothing stops
        res = P.bcd_power_allocation(replace(desk_scenario, target_power=0.0),
                                     M.quantization_model(1))
        assert (res.sweeps, res.converged, res.objective) == (1, True, 0.0)

    def test_bad_grid_step_rejected(self, desk_scenario):
        with pytest.raises(M.ModelError):
            P.bcd_power_allocation(desk_scenario, M.quantization_model(1), grid_step=0.7)


@st.composite
def oracle_cases(draw):
    """A small random scenario with N_r >= K + 1, and an ADC resolution."""
    n_clutter = draw(st.integers(0, 11))
    n_tx = draw(st.integers(2, 12))
    noise = 10.0 ** draw(st.floats(-1.0, 1.0))
    try:
        sc = M.Scenario(
            n_tx=n_tx, n_rx=draw(st.integers(n_clutter + 1, 24)),
            n_rf=draw(st.integers(1, min(n_tx, 4))), code_len=draw(st.integers(4, 16)),
            target_mean_angle=math.radians(draw(st.floats(-60.0, 60.0))),
            target_uncertainty=math.radians(draw(st.floats(0.0, 8.0))),
            target_grid_spacing=math.radians(draw(st.floats(1.0, 4.0))),
            target_power=noise * 10.0 ** draw(st.floats(-3.0, 3.0)),
            clutter_angles=np.radians(draw(st.lists(st.floats(-89.0, 89.0), min_size=n_clutter,
                                                    max_size=n_clutter, unique=True))),
            clutter_powers=noise * 10.0 ** np.array(draw(st.lists(
                st.floats(-1.0, 4.0), min_size=n_clutter, max_size=n_clutter))),
            noise_power=noise)
    except M.ModelError:          # a clutter angle on the target grid
        reject()
    return sc, draw(st.sampled_from([1, 2, 3, 4, 5, "ideal"]))


# levels on a grid of hundredths, so that every rise moves the objective far
# past its rounding
_LEVELS = st.integers(0, 100).map(lambda i: i / 100)


class TestPowerProfile:
    def test_levels_outside_box_rejected(self):
        with pytest.raises(M.ModelError):
            P.PowerProfile(np.array([0.0]), np.array([1.2]), np.zeros(0), np.zeros(0))

    @settings(max_examples=120, deadline=None)
    @given(oracle_cases())
    def test_closed_form_is_the_search_optimum(self, case):
        sc, bits = case
        q = M.quantization_model(bits)
        oracle = P.bcd_power_allocation(sc, q)
        profile = P.power_profile(sc)
        for name in ("target_angles", "target_levels", "clutter_angles", "clutter_levels"):
            np.testing.assert_array_equal(getattr(profile, name), getattr(oracle.profile, name),
                                          err_msg=name)
        assert P.profile_objective(profile.target_levels, profile.clutter_levels,
                                   sc, q) == oracle.objective

    @settings(max_examples=100, deadline=None)
    @given(oracle_cases(), st.data())
    def test_surrogate_is_monotone_in_each_level(self, case, data):
        sc, bits = case
        q = M.quantization_model(bits)
        K = sc.n_clutter
        phi_t = data.draw(_LEVELS)
        phi_c = np.array(data.draw(st.lists(_LEVELS, min_size=K, max_size=K)))
        base = float(P.asymptotic_objective(phi_t, phi_c, sc, q))
        higher = data.draw(_LEVELS.filter(lambda v: v >= phi_t))
        assert float(P.asymptotic_objective(higher, phi_c, sc, q)) >= base
        if K:
            k = data.draw(st.integers(0, K - 1))
            raised = phi_c.copy()
            raised[k] = data.draw(_LEVELS.filter(lambda v: v >= phi_c[k]))
            assert float(P.asymptotic_objective(phi_t, raised, sc, q)) <= base

    @pytest.mark.parametrize("name", ["default128", "desk32"])
    def test_zero_target_power_keeps_the_corner(self, name):
        # the search ends at all-zero levels, where every profile scores 0
        sc = replace(load_scenario(name), target_power=0.0)
        profile = P.power_profile(sc)
        np.testing.assert_array_equal(profile.target_levels, 1.0)
        np.testing.assert_array_equal(profile.clutter_levels, 0.0)
