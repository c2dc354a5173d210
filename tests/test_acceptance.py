"""Acceptance gate: one test per release criterion, each printing a PASS or
FAIL line with the measured numbers (run with ``pytest -s`` to see them all).
"""

import math
import time

import numpy as np
import pytest

from cebeam import model as M
from cebeam import onebit as OB
from cebeam import pipeline as PL
from cebeam import simulate as SIM
from cebeam.ce_design import (CeDesignParams, design_problem, penalized_objective,
                               plain_mm, squarem_accelerated_mm)
from cebeam.model import ADC_DISTORTION
from cebeam.power_alloc import PowerProfile, power_profile
from cebeam.quantizer import lloyd_max_codebook

from oracle import exhaustive_onebit, sample_h0_covariance_error


def report(name: str, ok: bool, detail: str, elapsed: float, limit: float):
    line = f"{'PASS' if ok else 'FAIL'}: {name} [{elapsed:.1f}s / limit {limit:.0f}s] {detail}"
    print(line)
    assert ok, line
    assert elapsed < limit, f"{name}: runtime {elapsed:.1f}s exceeded {limit:.0f}s"


def test_quantizer_distortion_table():
    t0 = time.perf_counter()
    rels = {}
    for bits, beta in ADC_DISTORTION.items():
        d = lloyd_max_codebook(bits).distortion()
        rels[bits] = abs(d - beta) / beta
    one_bit = lloyd_max_codebook(1).distortion()
    four_digits = abs(one_bit - (1 - 2 / math.pi)) < 5e-5
    ok = max(rels.values()) < 0.02 and four_digits
    report("quantizer distortion matches table",
           ok, f"worst rel err {max(rels.values()):.2e}, 1-bit {one_bit:.6f}",
           time.perf_counter() - t0, 1.0)


def test_gradient_against_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    n_tx, n_rf = 8, 2
    prof = PowerProfile(np.radians([-3.0, 0.0, 3.0]), np.array([1.0, 1.0, 0.8]),
                        np.radians([-40.0, 25.0, 60.0]), np.array([0.0, 0.1, 0.0]))
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        t = rng.uniform(-0.9, 0.9, n_tx * n_rf) / np.sqrt(n_tx)
        po, pb = rng.uniform(0.05, 2.0, 2)
        g = OB.epm_gradient(t, prof, n_tx, n_rf, po, pb)
        for i in range(t.size):
            e = np.zeros(t.size)
            e[i] = h
            fd = (OB.epm_objective(t + e, prof, n_tx, n_rf, po, pb)
                  - OB.epm_objective(t - e, prof, n_tx, n_rf, po, pb)) / (2 * h)
            worst = max(worst, abs(g[i] - fd) / max(abs(fd), 1e-8))
    report("exact-penalty gradient vs central differences",
           worst < 1e-5, f"max rel err {worst:.2e} over 20 points",
           time.perf_counter() - t0, 5.0)


def _segment_violations(trace, slack=1e-9):
    worst, count = 0.0, 0
    for i in range(1, trace.iterations):
        if trace.penalty[i] == trace.penalty[i - 1]:
            d = trace.objective[i] - trace.objective[i - 1]
            if d > slack:
                count += 1
                worst = max(worst, d)
    return count, worst


def test_mm_descent_full_scale():
    t0 = time.perf_counter()
    sc = PL.load_scenario("default128")
    prof = power_profile(sc)
    T0 = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(0))
    params = CeDesignParams(max_iters=1500, tol=1e-30, seed=0)
    _, tr_mm = plain_mm(T0, prof, params)
    _, tr_am = squarem_accelerated_mm(T0, prof, params)
    v_mm = _segment_violations(tr_mm)
    v_am = _segment_violations(tr_am)
    ok = (tr_mm.iterations == 1500 and tr_am.iterations == 1500
          and v_mm[0] == 0 and v_am[0] == 0)
    report("monotone descent over 1500 full-scale iterations",
           ok, f"violations MM={v_mm} AMM={v_am}",
           time.perf_counter() - t0, 300.0)


def test_method_ordering_at_full_scale():
    t0 = time.perf_counter()
    sc = PL.load_scenario("default128")
    q = M.quantization_model(1)
    prof = power_profile(sc)
    d_amm, d_mm, d_proj = [], [], []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        T0 = M.random_unit_modulus(sc.n_tx, sc.n_rf, rng)
        params = CeDesignParams(max_iters=1500, tol=1e-30, seed=seed)
        T_am, _ = squarem_accelerated_mm(T0, prof, params)
        T_mm, _ = plain_mm(T0, prof, params)
        problem = design_problem(prof, sc.n_tx, sc.n_rf)
        T_pr, _ = PL.projection_baseline(sc, problem, seed=seed)
        d_amm.append(M.averaged_relative_entropy(sc, T_am, q))
        d_mm.append(M.averaged_relative_entropy(sc, T_mm, q))
        d_proj.append(M.averaged_relative_entropy(sc, T_pr, q))
    m_amm, m_mm, m_proj = map(np.mean, (d_amm, d_mm, d_proj))
    orderings = m_amm > m_proj and m_amm > m_mm
    # Absolute reference 0.3833 under the grid-mean normalization.  The
    # feasibility ceiling of this quantity (unit target gain, perfect clutter
    # nulls, orthonormal columns) evaluates to ~0.105 at one-bit ADCs, so the
    # +-30% window around 0.3833 is unreachable by construction; see the
    # decisions ledger for the full analysis.
    window = abs(m_amm / 0.3833 - 1.0) <= 0.30
    detail = (f"mean D: AMM={m_amm:.4f} MM={m_mm:.4f} proj={m_proj:.4f}; "
              f"orderings={'ok' if orderings else 'VIOLATED'}; "
              f"AMM/0.3833={m_amm / 0.3833:.3f} (need within +-30%)")
    report("method ordering and absolute level", orderings and window, detail,
           time.perf_counter() - t0, 1800.0)


def test_onebit_matches_exhaustive_within_ten_percent():
    t0 = time.perf_counter()
    n_tx, n_rf = 4, 2
    prof = PowerProfile(np.radians([0.0]), np.array([1.0]),
                        np.radians([-50.0, 55.0]), np.zeros(2))
    penalty = 1.0
    _, v_opt = exhaustive_onebit(design_problem(prof, n_tx, n_rf), n_tx, n_rf, penalty)
    gaps = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        start = rng.choice([-1.0, 1.0], n_tx * n_rf) * 0.9 / np.sqrt(n_tx)
        T, _ = OB.nesterov_epm(start, prof, n_tx, n_rf, OB.OneBitParams())
        gaps.append((penalized_objective(T, prof, penalty) - v_opt) / v_opt)
    worst = max(gaps)
    report("one-bit design within 10% of exhaustive optimum",
           worst <= 0.10, f"worst relative gap {worst:.3f} over 10 seeds (optimum {v_opt:.5f})",
           time.perf_counter() - t0, 60.0)


def test_binary_set_reformulation_equivalence():
    t0 = time.perf_counter()
    n, m = 8, 4
    bound = 1.0 / np.sqrt(m)
    target = n / m
    rng = np.random.default_rng(0)
    n_samples = 100_000

    # forward: every sign vector admits the closed-form witness
    x = rng.choice([-bound, bound], size=(n_samples // 2, n))
    norms = np.linalg.norm(x, axis=1)
    y = np.sqrt(target) * x / norms[:, None]
    forward_ok = (np.all(np.abs(np.einsum("ij,ij->i", x, y) - target) < 1e-9)
                  and np.all(np.einsum("ij,ij->i", y, y) <= target + 1e-9)
                  and np.all(np.abs(x) <= bound + 1e-12))

    # converse: box/ball pairs meeting the coupling to 1e-9 must sit on the
    # walls; pairs off the walls cannot meet it
    near = rng.choice([-bound, bound], size=(n_samples // 2, n))
    near -= np.sign(near) * rng.uniform(0.0, 1e-10, size=near.shape)
    interior = rng.uniform(-0.95 * bound, 0.95 * bound, size=(n_samples // 2, n))
    xs = np.vstack([near, interior])
    best = np.sqrt(target) * np.linalg.norm(xs, axis=1)      # max x^T y over the ball
    satisfied = np.abs(best - target) <= 1e-9
    on_walls = np.all(np.abs(np.abs(xs) - bound) <= 1e-6, axis=1)
    converse_ok = (np.all(on_walls[satisfied])
                   and satisfied[:n_samples // 2].all()
                   and not satisfied[n_samples // 2:].any())

    report("binary-set continuous reformulation, both directions",
           forward_ok and converse_ok,
           f"{int(np.sum(satisfied))} satisfying pairs, all on walls: {bool(np.all(on_walls[satisfied]))}",
           time.perf_counter() - t0, 10.0)


def test_quantized_covariance_matches_model():
    t0 = time.perf_counter()
    sc = PL.load_scenario("desk32")
    T = M.random_unit_modulus(sc.n_tx, sc.n_rf, np.random.default_rng(11))
    errs = {}
    for bits in (1, 2, 3):
        errs[bits] = sample_h0_covariance_error(sc, T, bits, snapshots=100_000, seed=29)
    ok = max(errs.values()) < 0.05
    report("quantized sample covariance matches linearized model",
           ok, "rel frob err " + ", ".join(f"B{b}={e:.4f}" for b, e in errs.items()),
           time.perf_counter() - t0, 120.0)


def test_steering_gram_errors_decay():
    t0 = time.perf_counter()
    sizes = (32, 64, 128, 256)
    curves = {}
    for k in (5, 10, 20):
        curves[k] = SIM.steering_crosscorr_experiment(sizes, k, trials=1000, seed=3)
    decreasing = all(np.all(np.diff(c) < 0) for c in curves.values())
    k_ordered = all(curves[5][i] < curves[10][i] < curves[20][i] for i in range(len(sizes)))
    report("steering Gram error decays with array size and clutter count",
           decreasing and k_ordered,
           f"K=10 curve {np.round(curves[10], 4).tolist()}",
           time.perf_counter() - t0, 60.0)


def test_entropy_trends_in_bits_and_rf_chains():
    t0 = time.perf_counter()
    sc = PL.load_scenario("desk32")
    params = CeDesignParams(max_iters=3000, seed=0)

    d_bits = {}
    for bits in (1, 2, 3, "ideal"):
        _, rep, _, _ = PL.run_ce_design(sc, bits, seed=0, params=params)
        d_bits[bits] = rep.avg_relative_entropy
    seq = [d_bits[b] for b in (1, 2, 3, "ideal")]
    bits_monotone = all(a <= b for a, b in zip(seq, seq[1:]))
    gap = (d_bits["ideal"] - d_bits[3]) / d_bits["ideal"]

    rf_monotone = {}
    for bits in (1, 3, "ideal"):
        vals = [r[1] for r in PL.sweep(sc, 0, "n_rf", (2, 4, 8), bits=bits, params=params)]
        rf_monotone[bits] = all(a <= b for a, b in zip(vals, vals[1:]))
    ok = bits_monotone and gap < 0.10 and all(rf_monotone.values())
    report("relative entropy non-decreasing in bits and RF chains",
           ok, f"bits curve {[round(v, 4) for v in seq]}, 3-bit gap {gap:.3f}, "
               f"rf monotone {rf_monotone}",
           time.perf_counter() - t0, 600.0)


def test_detection_trends():
    t0 = time.perf_counter()
    sc = PL.load_scenario("desk32")
    pfa, trials = 1e-3, 100_000
    snrs = (-20.0, -15.0, -10.0, -5.0, 0.0)
    curves = {}
    for bits in (1, 3):
        T, _, _, _ = PL.run_ce_design(sc, bits, seed=0,
                                      params=CeDesignParams(max_iters=1500, seed=0))
        curves[bits] = SIM.detection_curve(T, sc, bits, snrs, pfa, trials, seed=17)

    # pooled false-alarm calibration per bit depth (threshold estimation and
    # measurement each contribute binomial noise).  The points of a curve
    # share one calibration run and one H0 run, so their rates do not average
    # down: a mean's variance is at most its largest term's, one point's
    pool_bound = 1.96 * math.sqrt(2.0 * pfa * (1 - pfa) / trials)
    pfa_ok = all(abs(np.mean(curves[b].empirical_pfa) - pfa) <= pool_bound for b in (1, 3))

    def ci_monotone(c):
        return all(c.pd[i + 1] >= c.pd[i] - (c.ci_halfwidth[i] + c.ci_halfwidth[i + 1])
                   for i in range(len(c.pd) - 1))

    monotone_ok = ci_monotone(curves[1]) and ci_monotone(curves[3])
    bits_ok = np.all(curves[3].pd >= curves[1].pd
                     - (curves[3].ci_halfwidth + curves[1].ci_halfwidth))
    ok = pfa_ok and monotone_ok and bits_ok
    report("detection probability trends",
           ok, f"pd(B=1)={np.round(curves[1].pd, 4).tolist()} "
               f"pd(B=3)={np.round(curves[3].pd, 4).tolist()} "
               f"mean pfa B1={np.mean(curves[1].empirical_pfa):.2e} "
               f"B3={np.mean(curves[3].empirical_pfa):.2e} (target 1e-3)",
           time.perf_counter() - t0, 900.0)
