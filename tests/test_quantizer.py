import math

import numpy as np
import pytest

from cebeam.model import ADC_DISTORTION, ModelError
from cebeam.quantizer import (ScalarQuantizer, lloyd_max_codebook, quantize_received,
                              quantize_values)
from cebeam.simulate import lrt_statistics


def _scipy_codebook(bits, tol=1e-10):
    """``lloyd_max_codebook``'s iteration with scipy's erf and erfinv, and the
    distortion of the result by per-cell quadrature."""
    special = pytest.importorskip("scipy.special")
    integrate = pytest.importorskip("scipy.integrate")

    def pdf(x):
        return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)

    def cdf(x):
        return 0.5 * (1.0 + special.erf(x / np.sqrt(2.0)))

    n = 2 ** bits
    levels = np.sqrt(2.0) * special.erfinv(2.0 * (np.arange(n) + 0.5) / n - 1.0)
    while True:
        edges = np.concatenate(([-np.inf], 0.5 * (levels[:-1] + levels[1:]), [np.inf]))
        new = (pdf(edges[:-1]) - pdf(edges[1:])) / (cdf(edges[1:]) - cdf(edges[:-1]))
        new = 0.5 * (new - new[::-1])
        move = np.max(np.abs(new - levels))
        levels = new
        if move < tol:
            break
    edges = np.concatenate(([-np.inf], 0.5 * (levels[:-1] + levels[1:]), [np.inf]))
    distortion = sum(integrate.quad(lambda x, c=c: (x - c) ** 2 * pdf(x), lo, hi,
                                    epsabs=1e-15, epsrel=1e-13)[0]
                     for c, lo, hi in zip(levels, edges[:-1], edges[1:]))
    return levels, edges[1:-1], distortion


class TestCodebook:
    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 5])
    def test_distortion_matches_table(self, bits):
        q = lloyd_max_codebook(bits)
        assert q.distortion() == pytest.approx(ADC_DISTORTION[bits], rel=0.02)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 5])
    def test_matches_scipy_reference(self, bits):
        # the standard library's erf and inverse cdf give scipy's codebook
        levels, thresholds, distortion = _scipy_codebook(bits)
        q = lloyd_max_codebook(bits)
        np.testing.assert_allclose(q.levels, levels, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(q.thresholds, thresholds, rtol=0.0, atol=1e-12)
        assert q.distortion() == pytest.approx(distortion, rel=0.0, abs=1e-12)

    def test_one_bit_closed_form(self):
        q = lloyd_max_codebook(1)
        np.testing.assert_allclose(np.abs(q.levels), np.sqrt(2 / np.pi), rtol=1e-10)
        assert q.distortion() == pytest.approx(1 - 2 / np.pi, abs=1e-10)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 5])
    def test_odd_symmetry(self, bits):
        q = lloyd_max_codebook(bits)
        np.testing.assert_allclose(q.levels, -q.levels[::-1], atol=1e-14)
        np.testing.assert_allclose(q.thresholds, -q.thresholds[::-1], atol=1e-14)

    def test_levels_increase_and_thresholds_interleave(self):
        q = lloyd_max_codebook(3)
        assert np.all(np.diff(q.levels) > 0)
        assert np.all(q.thresholds > q.levels[:-1])
        assert np.all(q.thresholds < q.levels[1:])

    def test_empirical_distortion_on_gaussian(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(10 ** 6)
        for bits in (1, 2, 3):
            q = lloyd_max_codebook(bits)
            err = np.mean((x - quantize_values(x, q.thresholds, q.levels)) ** 2)
            assert err == pytest.approx(ADC_DISTORTION[bits], rel=0.03)

    def test_unsupported_bits(self):
        with pytest.raises(ModelError):
            lloyd_max_codebook(6)

    def test_quantize_picks_nearest_level(self):
        q = lloyd_max_codebook(2)
        x = np.linspace(-4, 4, 1001)
        out = quantize_values(x, q.thresholds, q.levels)
        nearest = np.min(np.abs(x[:, None] - q.levels[None, :]), axis=1)
        # ties exactly on a threshold may go either way; the error can never
        # beat the nearest level
        np.testing.assert_array_compare(lambda a, b: a <= b + 1e-12,
                                        np.abs(x - out), nearest)


class TestQuantizeReceived:
    def test_ideal_is_identity(self):
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        assert quantize_received(Y, None, 2.0) is Y

    def test_one_bit_gives_two_values_per_row(self):
        rng = np.random.default_rng(2)
        Y = rng.standard_normal((3, 500)) + 1j * rng.standard_normal((3, 500))
        q = lloyd_max_codebook(1)
        Yq = quantize_received(Y, q, row_power=2.0)
        for r in range(3):
            assert np.unique(Yq[r].real).size == 2
            assert np.unique(Yq[r].imag).size == 2

    def test_round_trip_scaling(self):
        # unit-variance rows scaled by s must quantize like unscaled ones
        rng = np.random.default_rng(3)
        base = rng.standard_normal((2, 4000)) + 1j * rng.standard_normal((2, 4000))
        q = lloyd_max_codebook(3)
        ref = quantize_received(base, q, row_power=2.0)
        scaled = quantize_received(10.0 * base, q, row_power=200.0)
        np.testing.assert_allclose(scaled, 10.0 * ref, rtol=1e-12)

    def test_row_power_other_than_one_positive_number_refused(self):
        # the model gives every row one positive, finite power; zero, per-row
        # and non-numeric powers are refused, also for the ideal ADC
        Y = np.array([[0.1 + 0.2j, -0.3 + 0.05j], [0.4 - 0.1j, 0.2 + 0.3j]])
        for q in (lloyd_max_codebook(2), None):
            for row_power in (0.0, -1.0, math.inf, math.nan, np.array([2.0]), np.full(2, 2.0),
                              "2.0", None):
                with pytest.raises(ModelError, match="row power"):
                    quantize_received(Y, q, row_power)

    def test_measured_distortion_tracks_table(self):
        rng = np.random.default_rng(4)
        n = 10 ** 6
        Y = (rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n))) * np.sqrt(3.5 / 2)
        for bits in (1, 2, 3):
            q = lloyd_max_codebook(bits)
            Yq = quantize_received(Y, q, row_power=3.5)
            err = np.mean(np.abs(Y - Yq) ** 2) / 3.5
            assert err == pytest.approx(ADC_DISTORTION[bits], rel=0.03)


class TestKernelPaths:
    """The one-pass kernels against the direct numpy formulas they replace."""

    def test_quantizer_matches_searchsorted_oracle(self):
        rng = np.random.default_rng(6)
        x = 2.0 * rng.standard_normal(10_000)
        for bits in (1, 2, 3, 4, 5):
            q = lloyd_max_codebook(bits)
            oracle = q.levels[np.searchsorted(q.thresholds, x)]
            np.testing.assert_array_equal(quantize_values(x, q.thresholds, q.levels),
                                          oracle)

    def test_quantize_received_matches_per_part_oracle(self):
        rng = np.random.default_rng(9)
        Y = rng.standard_normal((7, 5, 6)) + 1j * rng.standard_normal((7, 5, 6))
        for power in (0.5, 1.75, 3.0):
            scale = np.sqrt(power / 2.0)
            for bits in (1, 3):
                q = lloyd_max_codebook(bits)
                re = q.levels[np.searchsorted(q.thresholds, Y.real / scale)]
                im = q.levels[np.searchsorted(q.thresholds, Y.imag / scale)]
                oracle = (re + 1j * im) * scale
                np.testing.assert_array_equal(quantize_received(Y, q, row_power=power), oracle)

    @staticmethod
    def three_pass(Y, q, row_power):
        """Divide by the row scale, quantize on the unit codebook, and rescale;
        one bit as a sign copy of the level."""
        scale = np.sqrt(row_power / 2.0)
        with np.errstate(over="ignore"):           # 1e300 over a tiny scale is inf
            x = np.divide(np.ascontiguousarray(Y).view(np.float64), scale)
        if q.bits == 1:
            x = np.copysign(q.levels[1], x, out=x)
        else:
            x = quantize_values(x, q.thresholds, q.levels)
        x *= scale
        return x.view(np.complex128)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 5])
    def test_scaled_codebook_is_the_three_pass_form_bit_for_bit(self, bits):
        # draws at the row power's scale, with +-0, subnormals and extremes,
        # at large and small row powers
        rng = np.random.default_rng(11)
        q = lloyd_max_codebook(bits)
        base = rng.standard_normal((4, 6, 10)) + 1j * rng.standard_normal((4, 6, 10))
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -np.inf])
        for power in (2.0, 0.02, 1e-3, 7.0, 1e-300, 1e300):
            Y = base * np.sqrt(power / 2.0)
            Y.real[0, :, :8], Y.imag[0, :, :8] = special, special[::-1]
            expected = self.three_pass(Y, q, power).tobytes()
            assert quantize_received(Y, q, row_power=power).tobytes() == expected

    def test_asymmetric_codebook_rejected(self):
        with pytest.raises(ModelError):
            ScalarQuantizer(bits=1, levels=np.array([-1.0, 2.0]), thresholds=np.array([0.5]))

    @staticmethod
    def lrt_form(rng, n_rx, rank, gamma=0.5):
        G = rng.standard_normal((rank, n_rx)) + 1j * rng.standard_normal((rank, n_rx))
        w = rng.uniform(-0.3, 1.0, rank)
        return G, w, gamma, gamma * np.eye(n_rx) + (G.conj().T * w) @ G

    def test_lrt_statistics_agree(self):
        rng = np.random.default_rng(7)
        Y = rng.standard_normal((64, 8, 5)) + 1j * rng.standard_normal((64, 8, 5))
        G, w, gamma, Mh = self.lrt_form(rng, 8, 3)
        oracle = np.einsum("trl,rs,tsl->t", Y.conj(), Mh, Y).real
        np.testing.assert_allclose(lrt_statistics(Y, G, w, gamma), oracle, rtol=1e-10)

    def test_statistic_matches_direct_loop(self):
        rng = np.random.default_rng(8)
        Y = rng.standard_normal((5, 4, 3)) + 1j * rng.standard_normal((5, 4, 3))
        G, w, gamma, Mh = self.lrt_form(rng, 4, 2)
        direct = [sum((Y[t, :, l].conj() @ Mh @ Y[t, :, l]).real for l in range(3))
                  for t in range(5)]
        np.testing.assert_allclose(lrt_statistics(Y, G, w, gamma), direct, rtol=1e-12)

    def test_zero_gamma_drops_the_norm_term(self):
        rng = np.random.default_rng(10)
        Y = rng.standard_normal((6, 4, 3)) + 1j * rng.standard_normal((6, 4, 3))
        G, w, gamma, Mh = self.lrt_form(rng, 4, 2, gamma=0.0)
        oracle = np.einsum("trl,rs,tsl->t", Y.conj(), Mh, Y).real
        np.testing.assert_allclose(lrt_statistics(Y, G, w, gamma), oracle, rtol=1e-12)
