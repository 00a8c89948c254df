"""Dyadic bilinear block constants: regimes, support conditions, exponents."""
import itertools

import numpy as np
import pytest

from kdvrad import bilinear
from kdvrad.bilinear import (DyadicTriple, WavePacketField, fit_exponent,
                             measure_block_ratio, predicted_block_constant,
                             product, xnorm_product_ratio)
from kdvrad.bumps import dyadic_bump
from kdvrad.errors import UnresolvableBandError, VanishingConfigurationError


def support(n):
    """|s| range of supp beta_n: [n/2, 2n], or [0, 2] for n = 1; beta_n > 0 inside."""
    return (0.0, 2.0) if n == 1 else (n / 2.0, 2.0 * n)


def output_reachable(t, points=801):
    """Brute force of the support lemma, independent of ``satisfies_support_conditions``.

    Does some input pair with |xi_k| in supp beta_Nk and |lam_k| in supp beta_Lk
    (k = 1, 2) put xi3 = xi1 + xi2 and lam3 = lam1 + lam2 - 3 xi1 xi2 xi3 where
    beta_N3(xi3) beta_L3(lam3) > 0, i.e. inside the open supports?  xi1 and xi2 run
    over ``points`` values per sign; lam1 + lam2 over each sign choice is an exact interval.
    """
    (c3, d3), (c, d) = support(t.n3), support(t.l3)
    signs = list(itertools.product((-1.0, 1.0), repeat=2))
    lam_sums = []
    for s1, s2 in signs:
        (p1, q1), (p2, q2) = (sorted((s * lo, s * hi)) for s, (lo, hi)
                              in ((s1, support(t.l1)), (s2, support(t.l2))))
        lam_sums.append((p1 + p2, q1 + q2))
    for s1, s2 in signs:
        xi1 = s1 * np.linspace(*support(t.n1), points)[:, None]
        xi2 = s2 * np.linspace(*support(t.n2), points)[None, :]
        xi3 = xi1 + xi2
        h = 3.0 * xi1 * xi2 * xi3
        in_n3 = (np.abs(xi3) > c3) & (np.abs(xi3) < d3)
        for p, q in lam_sums:  # lam3 in [p - h, q - h] meets +-(c, d)
            if np.any(in_n3 & (((p - h < d) & (q - h > c)) | ((p - h < -c) & (q - h > -d)))):
                return True
    return False


def assert_vanishes(t):
    """The block is identically zero: no output reaches the N3 x L3 supports, the
    support conditions fail, and the measurement refuses the triple."""
    assert not output_reachable(t)
    assert not t.satisfies_support_conditions()
    with pytest.raises(VanishingConfigurationError):
        measure_block_ratio(t, trials=4, seed=1)


def lattice_cloud(n, l, seed):
    """Random-amplitude cloud on 48 consecutive lattice points across supp beta_n, each at
    16 modulations across supp beta_l; the spacing depends on n alone."""
    rng = np.random.default_rng(seed)
    lo, hi = support(n)
    dxi = (hi - lo) / 48
    idx = np.repeat(int(round(lo / dxi)) + np.arange(48), 16)
    lam = np.tile(np.linspace(*support(l), 16), 48)
    amp = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
    return WavePacketField(idx, lam + (idx * dxi) ** 3, amp, dxi, 0.5)


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


class TestMeasureBlockRatio:
    def test_vanishing_configuration_is_numerically_zero(self):
        # |xi1 + xi2| <= 8 never reaches the N3 = 64 band: the block is exactly zero
        assert_vanishes(DyadicTriple(2, 2, 64, 1, 1, 1024))

    def test_modulation_separated_configuration_vanishes(self):
        # L3 far above both the resonance size and the other modulations
        assert_vanishes(DyadicTriple(2, 2, 4, 1, 1, 2 ** 16))

    def test_vanishing_configuration_with_unequal_input_bands(self):
        # L3 far below the resonance N1 N3^2, with input bands that differ
        assert_vanishes(DyadicTriple(2, 16, 16, 1, 1, 16))

    def test_refusal_names_the_failed_condition(self):
        # the outputs reach the supports (xi1 = xi2 = 1.9: |3 xi1 xi2 xi3| = 41 > 32), but
        # L3 = 64 is not within a factor 4 of the resonance size N_min N_max^2 = 8
        t = DyadicTriple(2, 2, 2, 1, 1, 64)
        assert output_reachable(t) and not t.satisfies_support_conditions()
        for triple, condition in ((t, "L_max = 64 is not ~ max(N_min N_max^2, L_med) = 8"),
                                  (DyadicTriple(2, 2, 32, 1, 1, 2048),
                                   "N_max = 32 is not ~ N_med = 2")):
            with pytest.raises(VanishingConfigurationError) as refused:
                measure_block_ratio(triple, trials=4, seed=1)
            message = str(refused.value)
            assert condition in message and "no block constant is predicted" in message
            assert "vanish" not in message

    def test_band_beyond_cap_rejected(self):
        for t in (DyadicTriple(2 ** 13, 2 ** 13, 2 ** 13, 1, 1, 1),
                  DyadicTriple(4, 4, 4, 1, 1, 2 ** 27)):
            with pytest.raises(UnresolvableBandError, match="exceeds the configured cap"):
                measure_block_ratio(t, trials=1)

    def test_unresolvable_triple_reports_counts(self):
        # |3 xi1 xi2 xi3| <= 6 at |xi| <= 2 cannot take lam1 + lam2 ~ 21 into
        # the L3 = 64 band, so no tube pair is ever admissible
        t = DyadicTriple(1, 1, 1, 1, 16, 64)
        assert t.satisfies_support_conditions()
        with pytest.raises(UnresolvableBandError,
                           match=r"0 of 4 requested trials admissible after 256 attempts"):
            measure_block_ratio(t, trials=4, seed=0)
        with pytest.raises(ValueError):
            measure_block_ratio(t, trials=0)

    def test_resolvable_triples_perform_every_trial(self):
        triples = [DyadicTriple(2, n, n, 1, 1, 2 * n ** 2) for n in (8, 16, 32, 64)]
        triples += [DyadicTriple(1, 16, 16, 256, 1, 4), DyadicTriple(1, 1, 1, 1, 1, 1),
                    DyadicTriple(8, 8, 8, 1, 4, 512)]
        for t in triples:
            assert output_reachable(t)
            rec = measure_block_ratio(t, trials=32, seed=7)
            assert rec.trials == 32
            assert rec.attempts >= rec.trials
            assert rec.measured_lhs > 0

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
        clouds = [lattice_cloud(n, l, seed=n + l) for n, l in ((4, 1), (16, 64), (32, 8))]
        clouds.append(product(clouds[0], lattice_cloud(4, 2, seed=5)))
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

    def test_x_norm_refuses_a_nan_modulation(self):
        with pytest.raises(ValueError, match="non-finite"):
            WavePacketField([0, 1], [np.nan, 1.0], [1, 1], 0.1, 0.5).x_norm()

    @pytest.mark.parametrize("n", [8, 64])
    def test_performs_every_requested_trial(self, n, monkeypatch):
        calls = []
        original = bilinear.product
        monkeypatch.setattr(bilinear, "product",
                            lambda u, v: calls.append(None) or original(u, v))
        xnorm_product_ratio(n, n, n, trials=32, seed=3)
        assert len(calls) == 32

    def test_unresolvable_bands_report_counts(self):
        # no (xi1, xi2) in +-(0.1, 2) sums to |xi3| >= 32
        with pytest.raises(UnresolvableBandError,
                           match=r"0 of 4 requested trials admissible after 256 attempts"):
            xnorm_product_ratio(1, 1, 64, trials=4)
        with pytest.raises(ValueError):
            xnorm_product_ratio(8, 8, 8, trials=0)

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
        # same-band clouds live on a common lattice, so products work
        a = lattice_cloud(4, 1, seed=1)
        b = lattice_cloud(4, 1, seed=2)
        w = product(a, b)
        assert w.l2_norm() > 0
        # mixed lattices are rejected
        c = lattice_cloud(8, 1, seed=3)
        with pytest.raises(ValueError, match="lattice"):
            product(a, c)
