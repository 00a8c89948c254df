"""Dyadic bilinear block constants: regimes, support conditions, exponents."""
import numpy as np
import pytest

from kdvrad.bilinear import (DyadicTriple, RatioRecord, WavePacketField,
                             fit_exponent, make_localized,
                             measure_block_ratio, predicted_block_constant,
                             product, xnorm_product_ratio)
from kdvrad.bumps import dyadic_bump
from kdvrad.errors import UnresolvableBandError, VanishingConfigurationError


class TestDyadicTriple:
    def test_validation(self):
        with pytest.raises(ValueError):
            DyadicTriple(3, 8, 8, 1, 1, 128)
        with pytest.raises(ValueError):
            DyadicTriple(2, 8, 8, 0.5, 1, 128)

    def test_balanced_regime(self):
        t = DyadicTriple(8, 8, 8, 1, 4, 512)
        assert t.regime == "balanced"

    def test_low_peak_regime(self):
        t = DyadicTriple(1, 16, 16, 256, 1, 4)
        assert t.regime == "low-peak"

    def test_generic_regime(self):
        # dominant modulation on a high-frequency slot: not the low-peak case
        t = DyadicTriple(2, 16, 16, 1, 1, 512)
        assert t.regime == "generic"

    def test_vanishing_configuration(self):
        t = DyadicTriple(2, 2, 32, 1, 1, 2048)
        assert not t.satisfies_support_conditions()
        with pytest.raises(VanishingConfigurationError):
            predicted_block_constant(t)


class TestPredictedConstant:
    def test_balanced_example(self):
        c = predicted_block_constant(DyadicTriple(8, 8, 8, 1, 4, 512))
        assert c == pytest.approx(8.0 ** -0.25 * np.sqrt(2.0), rel=1e-12)

    def test_low_peak_example(self):
        for l_med in (1, 4):
            c = predicted_block_constant(DyadicTriple(1, 16, 16, 256, l_med, 4))
            l_min = min(256, l_med, 4)
            expected = (1 / 16) * np.sqrt(l_min) \
                * np.sqrt(min(256.0, 16.0 * sorted((256, l_med, 4))[1]))
            assert c == pytest.approx(expected, rel=1e-12)

    def test_generic_formula(self):
        c = predicted_block_constant(DyadicTriple(2, 16, 16, 1, 1, 512))
        assert c == pytest.approx((1 / 16) * 1.0 * np.sqrt(min(512.0, 1.0)),
                                  rel=1e-12)


class TestMakeLocalized:
    def test_support_fraction(self):
        f = make_localized(4, 1, seed=3)
        assert f.support_mass_fraction(4, 1) >= 0.99

    def test_deterministic(self):
        a = make_localized(8, 2, seed=11)
        b = make_localized(8, 2, seed=11)
        assert np.array_equal(a.amp, b.amp)
        assert np.array_equal(a.tau, b.tau)

    def test_band_beyond_cap_rejected(self):
        with pytest.raises(UnresolvableBandError):
            make_localized(2 ** 13, 1, seed=0)
        with pytest.raises(UnresolvableBandError):
            make_localized(4, 2 ** 27, seed=0)

    def test_tube_geometry_in_band(self):
        f = make_localized(16, 1, seed=5, geometry="tube")
        assert f.support_mass_fraction(16, 1) >= 0.99


class TestMeasureBlockRatio:
    def test_vanishing_configuration_is_numerically_zero(self):
        t = DyadicTriple(2, 2, 64, 1, 1, 1024)
        rec = measure_block_ratio(t, trials=8, seed=1)
        assert rec.measured_lhs < 1e-10

    def test_modulation_separated_configuration_vanishes(self):
        # L3 far above both the resonance size and the other modulations
        t = DyadicTriple(2, 2, 4, 1, 1, 2 ** 16)
        rec = measure_block_ratio(t, trials=8, seed=1)
        assert rec.measured_lhs < 1e-10

    def test_more_trials_never_decrease_max(self):
        t = DyadicTriple(2, 16, 16, 1, 1, 512)
        r8 = measure_block_ratio(t, trials=8, seed=7)
        r16 = measure_block_ratio(t, trials=16, seed=7)
        assert r16.measured_lhs >= r8.measured_lhs
        assert r16.trials == 16

    def test_generic_regime_exponent(self):
        # N1 = 2 fixed, N2 = N3 = N, L = (1, 1, 2 N^2): predicted constant
        # N^-1 * sqrt(min(2 N^2, 1)) gives raw-ratio slope -1.  A common seed
        # reuses the same dimensionless trial family at every N.
        ns = [8, 16, 32, 64]
        vals = []
        for n in ns:
            t = DyadicTriple(2, n, n, 1, 1, 2 * n ** 2)
            rec = measure_block_ratio(t, trials=32, seed=7)
            assert t.regime == "generic"
            vals.append(rec.measured_lhs)
        slope = fit_exponent(ns, vals)
        assert slope == pytest.approx(-1.0, abs=0.15)


class TestXnormProductRatio:
    def test_zero_like_inputs(self):
        # empty amplitude cloud gives zero ratio contribution
        f = WavePacketField(np.array([3]), np.array([27.0]),
                            np.array([0.0 + 0j]), 0.1, 0.5)
        assert f.x_norm() == 0.0

    def test_x_norm_equals_per_band_loop_bitwise(self):
        def loop_x_norm(f):
            # one dyadic_bump per band L = 1, 2, 4, ... <= 2 max(1, max|lam|)
            lam = f.modulation
            total = 0.0
            l = 1
            l_top = 2.0 * max(1.0, float(np.max(np.abs(lam))))
            while l <= l_top:
                wgt = dyadic_bump(l, lam)
                total += np.sqrt(l) * np.sqrt(np.sum(wgt * wgt * np.abs(f.amp) ** 2)
                                              * f.cell_weight)
                l *= 2
            return float(total)

        rng = np.random.default_rng(11)
        clouds = [make_localized(n, l, seed=n + l, geometry=g)
                  for n, l, g in ((4, 1, "box"), (16, 64, "box"), (32, 8, "tube"))]
        clouds.append(product(clouds[0], make_localized(4, 2, seed=5)))
        for size, scale in ((40, 1.0), (300, 50.0), (7, 1e4)):
            clouds.append(WavePacketField(
                rng.integers(-200, 200, size), rng.uniform(-scale, scale, size),
                rng.standard_normal(size) + 1j * rng.standard_normal(size),
                rng.uniform(0.01, 0.2), 0.5))
        # max|lam| exactly dyadic: the loop's extra top band carries zero weight
        clouds.append(WavePacketField(np.array([0, 0]), np.array([4.0, -1.0]),
                                      np.array([1.0, 2.0j]), 0.1, 0.5))
        for f in clouds:
            assert f.x_norm() == loop_x_norm(f)
        assert WavePacketField([], [], [], 0.1, 0.5).x_norm() == 0.0

    def test_comparable_bands_exponent(self):
        ns = [8, 16, 32, 64]
        vals = [xnorm_product_ratio(n, n, n, trials=32, seed=3) for n in ns]
        slope = fit_exponent(ns, vals)
        assert slope == pytest.approx(-0.75, abs=0.2)

    def test_low_output_exponent(self):
        ns = [16, 32, 64, 128]
        vals = [xnorm_product_ratio(n, n, 1, trials=32, seed=3) for n in ns]
        slope = fit_exponent(ns, vals)
        assert slope <= -1.5 + 0.2


class TestProductBookkeeping:
    def test_convolution_shifts_frequency(self):
        u = WavePacketField(np.array([4]), np.array([64.0 * 0.001 ** 0 + 0.0]),
                            np.array([1.0 + 0j]), 0.5, 0.5)
        # single cells at xi=2: product must land at xi=4
        u = WavePacketField(np.array([4]), np.array([2.0 ** 3 / 1.0]),
                            np.array([1.0 + 0j]), 0.5, 0.5)
        w = product(u, u)
        assert w.xi_index.tolist() == [8]
        assert w.xi[0] == pytest.approx(4.0)

    def test_box_probes_share_lattice(self):
        # same-band box probes live on a common lattice, so products work
        a = make_localized(4, 1, seed=1)
        b = make_localized(4, 1, seed=2)
        w = product(a, b)
        assert w.l2_norm() > 0
        # mixed lattices are rejected
        c = make_localized(8, 1, seed=3)
        with pytest.raises(ValueError, match="lattice"):
            product(a, c)
