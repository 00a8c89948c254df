"""Gevrey norms, smoothing operators and radius estimation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvrad.errors import InsufficientSpectralRangeError, SpectralOverflowError
from kdvrad.gevrey import GevreyParams, estimate_radius, gevrey_norm, hs_norm, smooth
from kdvrad.grid import GridSpec, SpectralField, check_boundary_smallness, forward_transform
from kdvrad.solver import soliton

from conftest import (airy_propagate, cnoidal_wave, complex_dealiased_product, fft_order_k,
                      random_band_field)


def exponential_tail_field(grid, a):
    """Field with coeff(k) = exp(-a |xi_k|) (Hermitian by construction)."""
    return SpectralField(grid, np.exp(-a * grid.xi) + 0j)


class TestGevreyNorm:
    def test_reduces_to_l2(self, small_grid, rng):
        f = random_band_field(small_grid, rng)
        assert gevrey_norm(f, GevreyParams(0.0, 0.0)) == pytest.approx(f.l2_norm(), rel=1e-13)

    def test_single_mode_sobolev_weight(self, default_grid):
        g = default_grid
        f = forward_transform(np.cos(np.pi * g.x / 40.0), g)
        expected = f.l2_norm() * np.sqrt(1.0 + (np.pi / 40.0) ** 2)
        assert gevrey_norm(f, GevreyParams(0.0, 1.0)) == pytest.approx(expected, rel=1e-12)

    def test_exponential_field_against_band_sum_oracle(self, small_grid):
        # independent oracle: plain Riemann sum of exp((2sigma-2a)|xi|)/(2pi)
        # over the grid band, written without the package's weighting code
        a, sig = 1.0, 0.5
        f = exponential_tail_field(small_grid, a)
        xi = np.pi * fft_order_k(small_grid) / small_grid.half_length  # all n modes
        dxi = np.pi / small_grid.half_length
        oracle = np.sqrt(np.sum(np.exp((2 * sig - 2 * a) * np.abs(xi))) * dxi / (2 * np.pi))
        assert gevrey_norm(f, GevreyParams(sig, 0.0)) == pytest.approx(oracle, rel=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           sig=st.floats(0.0, 0.3), sig2=st.floats(0.0, 0.3),
           s=st.floats(-1.0, 1.0), s2=st.floats(-1.0, 1.0))
    def test_monotone_in_sigma_and_s(self, seed, sig, sig2, s, s2):
        g = GridSpec(128, 20.0)
        f = random_band_field(g, np.random.default_rng(seed), max_mode=16)
        lo = gevrey_norm(f, GevreyParams(min(sig, sig2), min(s, s2)))
        hi = gevrey_norm(f, GevreyParams(max(sig, sig2), max(s, s2)))
        assert lo <= hi * (1 + 1e-12)

    def test_embedding_with_explicit_grid_maximum(self, small_grid, rng):
        f = random_band_field(small_grid, rng, max_mode=20)
        sig, sig2 = 0.4, 0.1
        s, s2 = 0.0, 0.5
        xi = small_grid.xi
        factor = np.max(np.exp((sig2 - sig) * np.abs(xi)) * (1 + xi ** 2) ** ((s2 - s) / 2))
        lhs = gevrey_norm(f, GevreyParams(sig2, s2))
        rhs = gevrey_norm(f, GevreyParams(sig, s)) * factor
        assert lhs <= rhs * (1 + 1e-12)

    def test_overflow_carries_certifiable_sigma(self, small_grid):
        f = exponential_tail_field(small_grid, 0.05)
        with pytest.raises(SpectralOverflowError) as exc:
            gevrey_norm(f, GevreyParams(40.0, 0.0))
        cert = exc.value.certifiable_sigma
        assert 0.0 < cert < 40.0
        gevrey_norm(f, GevreyParams(0.95 * cert, 0.0))  # certified value works

    @pytest.mark.parametrize("sigma, s", [(np.inf, 0.0), (np.nan, 0.0), (0.1, np.inf)])
    def test_refuses_non_finite_params(self, sigma, s):
        with pytest.raises(ValueError):
            GevreyParams(sigma, s)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_coefficient_raises_with_no_certifiable_sigma(self, small_grid, bad):
        half = soliton(small_grid, 1.0).half.copy()
        half[5] = bad
        with pytest.raises(SpectralOverflowError) as exc:
            gevrey_norm(SpectralField(small_grid, half), GevreyParams(0.5))
        assert exc.value.certifiable_sigma == 0.0

    def test_free_flow_preserves_every_gevrey_norm(self, small_grid, rng):
        f = random_band_field(small_grid, rng, max_mode=16)
        p = GevreyParams(0.3, -0.5)
        before = gevrey_norm(f, p)
        after = gevrey_norm(airy_propagate(f, 3.7), p)
        assert after == pytest.approx(before, rel=1e-13)


class TestSmooth:
    def test_zero_is_identity(self, small_grid, rng):
        f = random_band_field(small_grid, rng)
        assert np.array_equal(smooth(f, 0.0).coeffs, f.coeffs)

    def test_round_trip(self, small_grid, rng):
        f = random_band_field(small_grid, rng, max_mode=20)
        back = smooth(smooth(f, 0.7), -0.7)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-10 * np.max(np.abs(f.coeffs))

    def test_sech_smoothing_shifts_tail_rate(self, default_grid):
        # the sech transform decays at rate pi/2; smoothing by sigma < pi/2
        # reduces the tail slope by exactly sigma.  Band-limit first: past the
        # roundoff floor exp(sigma*|xi|) amplifies noise into a rising tail.
        f = forward_transform(1.0 / np.cosh(default_grid.x), default_grid)
        f = SpectralField(f.grid, f.half * (f.grid.xi <= 18.0))
        sm = smooth(f, 1.0)
        assert np.all(np.isfinite(sm.coeffs))
        est = estimate_radius(sm)
        assert est.sigma_hat == pytest.approx(np.pi / 2 - 1.0, rel=0.05)

    def test_overflow(self, small_grid):
        f = exponential_tail_field(small_grid, 0.01)
        with pytest.raises(SpectralOverflowError):
            smooth(f, 80.0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_sigma(self, small_grid, sigma):
        with pytest.raises(ValueError):
            smooth(soliton(small_grid, 1.0), sigma)

    def test_overflow_on_a_stack_certifies_its_first_overflowing_row(self, small_grid):
        # exp(70|xi|) is finite on this grid; rows 1 and 2 overflow, row 2 the more
        rows = [exponential_tail_field(small_grid, a) for a in (20.0, 0.01, 0.001)]
        smooth(rows[0], 70.0)
        with pytest.raises(SpectralOverflowError) as alone:
            smooth(rows[1], 70.0)
        with pytest.raises(SpectralOverflowError) as stacked:
            smooth(SpectralField(small_grid, np.stack([r.half for r in rows])), 70.0)
        assert stacked.value.certifiable_sigma == alone.value.certifiable_sigma
        with pytest.raises(SpectralOverflowError) as last:
            smooth(rows[2], 70.0)
        assert last.value.certifiable_sigma < alone.value.certifiable_sigma

    def test_nan_coefficient_raises(self, small_grid):
        half = soliton(small_grid, 1.0).half.copy()
        half[5] = np.nan
        with pytest.raises(SpectralOverflowError) as exc:
            smooth(SpectralField(small_grid, half), 0.1)
        assert exc.value.certifiable_sigma == 0.0

    @pytest.mark.parametrize("sigma", [0.0, -0.1])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_coefficient_is_named_at_sigma_up_to_zero(self, small_grid, sigma, bad):
        half = soliton(small_grid, 1.0).half.copy()
        half[5] = bad
        xi = f"{small_grid.xi[5]:.6g}"
        # on a stack the bin is named along the last axis, whichever row holds it
        for field in (SpectralField(small_grid, half),
                      SpectralField(small_grid, np.stack([soliton(small_grid, 1.0).half, half]))):
            with pytest.raises(SpectralOverflowError, match=rf"k = 5 \(xi = {xi}\)") as exc:
                smooth(field, sigma)
            assert exc.value.certifiable_sigma == 0.0

    def test_zero_coefficients_stay_zero_where_the_weight_overflows(self, default_grid):
        # the product is zero past the 2/3 band, where exp(20|xi|) is inf
        p = complex_dealiased_product(soliton(default_grid, 1.0), soliton(default_grid, 1.0))
        zero = p.coeffs == 0
        xi = np.pi * fft_order_k(default_grid) / default_grid.half_length  # FFT order
        with np.errstate(over="ignore"):
            weight = np.exp(20.0 * np.abs(xi))
        assert np.isinf(weight[zero]).sum() == 121
        out = smooth(p, 20.0)
        assert np.all(np.isfinite(out.coeffs)) and np.all(out.coeffs[zero] == 0)
        # the stored half is multiplied by the weight; -k holds its conjugate
        keep, h = ~zero[:p.half.size], p.half.size
        assert out.half[keep].tobytes() == (p.half[keep] * weight[:h][keep]).tobytes()


class TestEstimateRadius:
    def test_exact_exponential(self, default_grid):
        f = exponential_tail_field(default_grid, 0.7)
        est = estimate_radius(f)
        assert est.sigma_hat == pytest.approx(0.7, abs=1e-6)
        assert est.residual < 1e-8
        assert not est.superexponential

    def test_gaussian_flags_superexponential(self, default_grid):
        f = forward_transform(np.exp(-default_grid.x ** 2), default_grid)
        est = estimate_radius(f)
        assert est.superexponential

    def test_soliton_pole_distance(self, default_grid):
        f = soliton(default_grid, speed=1.0)
        est = estimate_radius(f)
        assert est.sigma_hat == pytest.approx(np.pi, rel=0.05)
        f4 = soliton(default_grid, speed=4.0)
        est4 = estimate_radius(f4)
        assert est4.sigma_hat == pytest.approx(np.pi / 2.0, rel=0.05)

    def test_insufficient_range(self, small_grid):
        f = forward_transform(np.cos(np.pi * small_grid.x / 40.0), small_grid)
        with pytest.raises(InsufficientSpectralRangeError):
            estimate_radius(f)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_coefficient_is_named(self, small_grid, bad):
        half = soliton(small_grid, 1.0).half.copy()
        half[5] = bad
        xi = f"{small_grid.xi[5]:.6g}"
        with pytest.raises(SpectralOverflowError, match=rf"k = 5 \(xi = {xi}\)") as exc:
            estimate_radius(SpectralField(small_grid, half))
        assert exc.value.certifiable_sigma == 0.0

    def test_smoothing_shifts_estimate_exactly(self, default_grid):
        f = exponential_tail_field(default_grid, 0.9)
        base = estimate_radius(f).sigma_hat
        shifted = estimate_radius(smooth(f, -0.5)).sigma_hat
        assert shifted == pytest.approx(base + 0.5, abs=1e-6)


#: (k, j) of the cnoidal waves: moduli from 0.9 to 0.99999, one to eight periods on [-40, 40)
CNOIDAL = [(0.9, 1), (0.99, 2), (0.999, 4), (0.99999, 8)]


class TestCnoidalOracle:
    """``conftest.cnoidal_wave``: a closed-form periodic KdV wave whose radius is K' / beta."""

    @pytest.mark.parametrize("k, j", CNOIDAL)
    def test_solves_the_travelling_wave_equation(self, default_grid, k, j):
        # -c u' + u''' + u u' by spectral derivatives, relative to its largest term: round-off
        # of u''' up to |xi| = 80 leaves 6.3e-9 at (0.9, 1) and 4e-10 at most elsewhere; a
        # speed off by 1e-6 leaves more than the bound
        u, c, _ = cnoidal_wave(default_grid, k, j, delta=0.3)
        xi = 2.0 * np.pi * np.fft.fftfreq(default_grid.num_points, default_grid.dx)
        du, d3u = (np.real(np.fft.ifft((1j * xi) ** p * np.fft.fft(u))) for p in (1, 3))
        for speed, fits in ((c, True), (c + 1e-6, False)):
            terms = [-speed * du, d3u, u * du]
            scale = max(np.max(np.abs(t)) for t in terms)
            assert (np.max(np.abs(sum(terms))) <= 1e-8 * scale) == fits

    @pytest.mark.parametrize("k, j", CNOIDAL)
    def test_estimate_radius_reads_kp_over_beta(self, default_grid, k, j):
        # the double poles' algebraic factor |xi| tilts the exponential fit, so the estimate
        # reads low: -6.90 / -4.07 / -3.94 / -3.96 % over CNOIDAL
        u, _, radius = cnoidal_wave(default_grid, k, j)
        est = estimate_radius(forward_transform(u, default_grid)).sigma_hat
        assert 0.925 <= est / radius <= 0.965


def test_whole_field_diagnostics_refuse_a_stack(default_grid):
    f = soliton(default_grid, 1.0)
    stack = SpectralField(default_grid, np.stack([f.half, f.half]))
    for diagnostic in (lambda g: gevrey_norm(g, GevreyParams(0.1)), hs_norm, estimate_radius,
                       check_boundary_smallness):
        with pytest.raises(ValueError, match="not a stack"):
            diagnostic(stack)
        diagnostic(stack[0])  # one row is one field
