"""Transforms, multipliers, the reference dealiased product and the boundary gate.

The sech example is checked against its continuous transform; the closed
form pi*sech(pi*xi/2) was confirmed independently by adaptive quadrature of
integral 2*sech(x)*cos(x*xi) dx (frozen reference values below).
"""
import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvrad.errors import DomainTooSmallError, KdvradError
from kdvrad.gevrey import smooth
from kdvrad.grid import (GridSpec, SpectralField, check_boundary_smallness, forward_transform,
                         irfft, rfft)
from kdvrad.solver import SolverConfig, evolve, soliton

from conftest import (complex_dealiased_product, fft_order_k, hermitian_defect,
                      keep_mask_formula, random_band_field, sign_formula)

# oracle: scipy.integrate.quad of 2*cos(x*xi)/cosh(x) on [0, 60], abs tol ~1e-12
SECH_TRANSFORM_ORACLE = {
    0.0: 3.1415926536,
    1.0: 1.2520403313,
    3.0: 0.0564391275,
    7.0: 0.0001054053,
}


class TestGridSpec:
    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            GridSpec(1000, 40.0)
        with pytest.raises(ValueError):
            GridSpec(1024, -1.0)

    @pytest.mark.parametrize("n", [1, 0, -4])
    def test_fewer_than_two_points_refused(self, n):
        # 1 = 2^0, but no real FFT of one point runs
        with pytest.raises(ValueError, match="power of two >= 2"):
            GridSpec(n, 40.0)

    @pytest.mark.parametrize("half_length", [np.nan, np.inf])
    def test_non_finite_half_length_refused(self, half_length):
        with pytest.raises(ValueError, match="half_length must be positive and finite"):
            GridSpec(64, half_length)

    def test_frequency_set(self, default_grid):
        xi = default_grid.xi
        assert xi[0] == 0.0
        assert xi[1] == pytest.approx(np.pi / 40.0)
        # k = 0..n/2, the Nyquist mode at +n/2
        k = default_grid.k_index
        assert k[0] == 0 and k[-1] == 512 and np.all(np.diff(k) == 1)
        assert xi[-1] == pytest.approx(512 * np.pi / 40.0)
        assert default_grid.dx > 0

    @pytest.mark.parametrize("n, half_length", [(2, 1.0), (64, 10.0), (1024, 40.0)])
    def test_every_frequency_array_is_the_half_spectrum(self, n, half_length):
        g = GridSpec(n, half_length)
        for a in (g.xi, g.k_index, g._sign, g.half_weight):
            assert a.shape == (n // 2 + 1,)
        assert np.all(g.xi >= 0.0)

    def test_arrays_equal_formulas_bitwise_and_reject_writes(self):
        g = GridSpec(512, 30.0)
        k = np.arange(257, dtype=np.int64)
        assert g.k_index.dtype == np.int64
        assert g.k_index.tobytes() == k.tobytes()
        assert g.xi.tobytes() == (np.pi * k / 30.0).tobytes()
        assert g._sign.tobytes() == np.where(k % 2 == 0, 1.0, -1.0).tobytes()
        # the band k < m is the k >= 0 half of the keep-mask, at 2/3 and at other fractions
        for fraction, band in ((2.0 / 3.0, g.band), (0.5, g.band_size(0.5)),
                               (1.0, g.band_size(1.0))):
            assert (np.arange(257) < band).tobytes() \
                == keep_mask_formula(g, fraction)[:257].tobytes()
        weight = np.full(257, 2.0)
        weight[[0, -1]] = 1.0
        assert g.half_weight.tobytes() == weight.tobytes()
        for a in (g.k_index, g.xi, g._sign, g.half_weight):
            with pytest.raises(ValueError):
                a[1] = 0
        # computed once: every read returns the same array
        assert g.xi is g.xi and g.k_index is g.k_index
        # copies rebuild the arrays read-only
        for h in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert h == g and h.xi.tobytes() == g.xi.tobytes()
            assert h.band == g.band
            for a in (h.k_index, h.xi, h._sign, h.half_weight):
                with pytest.raises(ValueError):
                    a[1] = 0

    def test_transforms_work_along_last_axis(self, small_grid, rng):
        g = small_grid
        rows = rng.standard_normal((3, g.num_points))
        halves = g.to_half(rows)
        for row, h in zip(rows, halves):
            f = forward_transform(row, g)
            assert f.half.tobytes() == h.tobytes()
        values = g.half_to_values(halves)
        for h, v in zip(halves, values):
            assert SpectralField(g, h).values().tobytes() == v.tobytes()

    def test_half_to_values_refuses_a_coarser_grid(self):
        g = GridSpec(64, 10.0)
        f = forward_transform(np.exp(-g.x ** 2) * np.cos(8 * g.x), g)
        with pytest.raises(ValueError, match="64-point.* 32 points"):
            g.half_to_values(f.half, 32)
        assert g.half_to_values(f.half, 64).tobytes() == f.values().tobytes()

    def test_from_half_works_along_last_axis(self, default_grid, rng):
        g = default_grid
        h = g.num_points // 2 + 1
        batch = rng.standard_normal((2, h)) + 1j * rng.standard_normal((2, h))
        full = g.from_half(batch)
        assert full.shape == (2, g.num_points)
        for row, c in zip(batch, full):
            # the 1-D completion written out: real k = 0 and Nyquist, conjugate mirror
            expected = np.concatenate(([row[0].real], row[1:-1], [row[-1].real],
                                       np.conj(row[-2:0:-1])))
            assert g.from_half(row).tobytes() == c.tobytes() == expected.tobytes()

    def test_half_spectrum_matches_full_transforms(self, small_grid, rng):
        # the full transforms written out: c_k = dx (-1)^k fft(u)_k and its inverse
        g = small_grid
        n, h = g.num_points, g.num_points // 2 + 1
        v = random_band_field(g, rng).values()
        full = g.dx * sign_formula(n) * np.fft.fft(v)
        scale = np.max(np.abs(full))
        assert np.max(np.abs(g.to_half(v) - full[:h])) < 1e-14 * scale
        assert np.max(np.abs(g.from_half(full[:h]) - full)) < 1e-14 * scale
        assert np.max(np.abs(g.half_to_values(g.to_half(v)) - v)) < 1e-14 * np.max(np.abs(v))
        # zero padding samples the same band-limited field on the 2x grid
        padded = np.zeros(2 * n, dtype=complex)
        padded[:h - 1], padded[-(h - 1):] = full[:h - 1], full[-(h - 1):]
        fine_dx = g.dx / 2
        fine_values = np.real(np.fft.ifft(padded * sign_formula(2 * n))) / fine_dx
        refined = g.half_to_values(full[:h], 2 * n)
        assert np.max(np.abs(refined - fine_values)) < 1e-14 * np.max(np.abs(v))
        assert np.max(np.abs(refined[::2] - v)) < 1e-14 * np.max(np.abs(v))

    def test_field_stores_the_half_spectrum(self, small_grid, rng):
        g = small_grid
        h = g.num_points // 2 + 1
        c = rng.standard_normal(h) + 1j * rng.standard_normal(h)
        f = SpectralField(g, c)
        # a copy, with the k = 0 and Nyquist entries stored by their real parts
        assert f.half is not c and f.half.shape == (h,)
        assert f.half[[0, -1]].tobytes() == (c[[0, -1]].real + 0j).tobytes()
        assert f.half[1:-1].tobytes() == c[1:-1].tobytes()
        # the full array is a derived read-only view: a write raises
        assert f.coeffs.tobytes() == g.from_half(c).tobytes()
        with pytest.raises(ValueError):
            f.coeffs[1] = 0.0
        for shape in ((g.num_points,), (h - 1,), (2, h - 1), ()):
            with pytest.raises(ValueError, match="half-spectrum"):
                SpectralField(g, np.zeros(shape, dtype=complex))
        # a stack of rows: each row stores its k = 0 and Nyquist entries by their real parts
        rows = rng.standard_normal((2, h)) + 1j * rng.standard_normal((2, h))
        stack = SpectralField(g, rows)
        assert stack.half.shape == (2, h)
        assert stack.half[:, [0, -1]].tobytes() == (rows[:, [0, -1]].real + 0j).tobytes()
        assert stack.half[:, 1:-1].tobytes() == rows[:, 1:-1].tobytes()

    def test_rows_of_a_stack_are_read_only_views(self, small_grid, rng):
        h = small_grid.num_points // 2 + 1
        stack = SpectralField(small_grid, rng.standard_normal((3, h)))
        row, tail = stack[1], stack[1:]
        assert row.half.shape == (h,) and np.shares_memory(row.half, stack.half)
        assert tail.half.tobytes() == stack.half[1:].tobytes()
        with pytest.raises(ValueError):
            row.half[0] = 1.0
        with pytest.raises(IndexError):
            row[0]
        # stored C-ordered whatever the input's layout, so each row sums as it would alone
        assert SpectralField(small_grid, np.asfortranarray(stack.half)).half.flags.c_contiguous


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRealTransforms:
    """``rfft`` / ``irfft`` call numpy's kernels directly and equal np.fft's bit for bit."""

    @pytest.mark.parametrize("n", [16, 512, 1024, 2048, 4096])
    @pytest.mark.parametrize("rows", [(), (3,)])
    def test_equal_numpy_bitwise(self, n, rows, rng):
        x = rng.standard_normal(rows + (n,))
        assert same_bits(rfft(x), np.fft.rfft(x))
        # random imaginary parts at k = 0 and Nyquist too, which both read as zero
        half = rng.standard_normal(rows + (n // 2 + 1, 2)) @ np.array([1.0, 1j])
        assert same_bits(irfft(half, n), np.fft.irfft(half, n))

    @pytest.mark.parametrize("rows", [(), (3,)])
    def test_irfft_zero_pads_a_truncated_band(self, rows, rng):
        # 342 of 513 entries, a strided view for a stack, as the 2/3 band is read
        half = np.fft.rfft(rng.standard_normal(rows + (1024,)))[..., :342]
        assert same_bits(irfft(half, 1024), np.fft.irfft(half, 1024))

    @pytest.mark.parametrize("rows", [(), (3,)])
    def test_out_is_the_result(self, rows, rng):
        x = rng.standard_normal(rows + (1024,))
        buf, u = np.empty(rows + (513,), dtype=complex), np.empty(rows + (1024,))
        assert rfft(x, out=buf) is buf and same_bits(buf, np.fft.rfft(x))
        assert irfft(buf[..., :342], 1024, out=u) is u
        assert same_bits(u, np.fft.irfft(buf[..., :342], 1024))


class TestForwardTransform:
    def test_constant_field(self, default_grid):
        c = forward_transform(np.ones(default_grid.num_points), default_grid)
        assert c.coeffs[0] == pytest.approx(2 * default_grid.half_length)
        assert np.max(np.abs(c.coeffs[1:])) < 1e-12

    def test_single_cosine_mode(self, default_grid):
        g = default_grid
        v = np.cos(np.pi * g.x / g.half_length)
        c = forward_transform(v, g)
        mags = np.abs(c.coeffs)
        nonzero = np.flatnonzero(mags > 1e-9 * mags.max())
        assert set(fft_order_k(g)[nonzero]) == {-1, 1}
        assert mags[1] == pytest.approx(g.half_length, rel=1e-12)

    def test_sech_matches_continuous_transform(self, default_grid):
        g = default_grid
        # the quadrature oracle pins the closed form (constant pi, not pi/2)
        for xi0, ref in SECH_TRANSFORM_ORACLE.items():
            assert np.pi / np.cosh(np.pi * xi0 / 2.0) == pytest.approx(ref, abs=2e-9)
        c = forward_transform(1.0 / np.cosh(g.x), g)
        sel = g.xi <= 10.0
        closed = np.pi / np.cosh(np.pi * g.xi[sel] / 2.0)
        assert np.max(np.abs(np.abs(c.half[sel]) - closed) / closed) < 1e-8

    def test_rejects_non_finite(self, small_grid):
        v = np.zeros(small_grid.num_points)
        v[3] = np.nan
        with pytest.raises(KdvradError, match="non-finite"):
            forward_transform(v, small_grid)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_round_trip_random_fields(self, seed):
        g = GridSpec(256, 40.0)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(g.num_points)
        w = forward_transform(v, g).values()
        assert np.max(np.abs(w - v)) < 1e-12 * max(1.0, np.max(np.abs(v)))

    def test_parseval(self, small_grid, rng):
        f = random_band_field(small_grid, rng)
        v = f.values()
        phys = np.sqrt(np.sum(v * v) * small_grid.dx)
        assert f.l2_norm() == pytest.approx(phys, rel=1e-12)

    def test_hermitian_symmetry(self, small_grid, rng):
        f = random_band_field(small_grid, rng)
        assert hermitian_defect(f.coeffs) < 1e-12


class TestApplyMultiplier:
    """Multipliers act on the half-spectrum, at the grid's frequencies ``xi``."""

    def test_identity(self, small_grid, rng):
        f = random_band_field(small_grid, rng)
        assert np.array_equal(smooth(f, 0.0).coeffs, f.coeffs)

    def test_spectral_derivative_of_grid_mode(self, default_grid):
        # the (1j xi)^k * half derivative of the residual oracle
        g = default_grid
        f = forward_transform(np.sin(np.pi * g.x / g.half_length), g)
        d = g.half_to_values(1j * g.xi * f.half)
        expected = (np.pi / g.half_length) * np.cos(np.pi * g.x / g.half_length)
        assert np.max(np.abs(d - expected)) < 1e-12

    def test_exponential_multiplier_round_trip(self, small_grid, rng):
        f = random_band_field(small_grid, rng, max_mode=20)
        back = smooth(smooth(f, -0.1), 0.1)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-10 * np.max(np.abs(f.coeffs))

    def test_real_even_multiplier_preserves_reality(self, small_grid, rng):
        f = random_band_field(small_grid, rng)
        g = smooth(f, -1.0)
        v = np.fft.ifft(g.coeffs * sign_formula(small_grid.num_points)) / small_grid.dx
        assert np.max(np.abs(v.imag)) < 1e-12 * np.max(np.abs(v.real))


def truncated_convolution(f, g, fraction=2.0 / 3.0):
    """O(n^2) sum over k1 + k2 = k of the kept coefficients (no wrap-around), on the kept band:
    FT(u v)(xi) = (1/2pi) int f_hat(xi1) g_hat(xi - xi1) dxi1 with continuous normalization."""
    grid, n = f.grid, f.grid.num_points
    kept = fft_order_k(grid)[keep_mask_formula(grid, fraction)]
    out = np.zeros(n, dtype=complex)
    for k in kept:
        out[k % n] = sum(f.coeffs[k1 % n] * g.coeffs[(k - k1) % n]
                         for k1 in kept if abs(k - k1) <= np.max(kept))
    return out * grid.dxi / (2 * np.pi)


class TestDealiasedProduct:
    """``conftest.complex_dealiased_product``, the reference product of the oracles."""

    def test_product_of_modes(self, default_grid):
        g = default_grid
        xi0 = 16 * np.pi / g.half_length
        u = forward_transform(np.cos(xi0 * g.x), g)
        prod = complex_dealiased_product(u, u)
        vals = prod.values()
        expected = np.cos(xi0 * g.x) ** 2
        assert np.max(np.abs(vals - expected)) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_truncated_convolution(self, seed):
        grid = GridSpec(64, 10.0)
        rng = np.random.default_rng(seed)
        f = random_band_field(grid, rng, max_mode=31)
        g = random_band_field(grid, rng, max_mode=31)
        for a, b in ((f, f), (f, g)):
            ref = truncated_convolution(a, b)
            got = complex_dealiased_product(a, b).coeffs
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_band_is_truncated(self, small_grid, rng):
        f = random_band_field(small_grid, rng)
        prod = complex_dealiased_product(f, f)
        k = np.abs(fft_order_k(small_grid))
        cut = int((2 / 3) * (small_grid.num_points // 2))
        assert np.all(prod.coeffs[k > cut] == 0)


class TestBoundaryGate:
    def test_centered_field_passes(self, default_grid):
        f = forward_transform(1.0 / np.cosh(default_grid.x) ** 2, default_grid)
        check_boundary_smallness(f)

    def test_edge_mass_aborts(self, default_grid):
        g = default_grid
        f = forward_transform(1.0 / np.cosh(g.x - 39.0) ** 2, g)
        with pytest.raises(DomainTooSmallError, match="domain too small"):
            check_boundary_smallness(f, time=0.5)

    def test_under_resolved_soliton_names_the_grid(self, small_grid):
        # the c = 1 soliton at N = 256 keeps 2.6e-8 of its peak coefficient past the 2/3 band
        # (9e-17 at N = 512), and the semi-discrete flow carries that to the edge at once
        with pytest.raises(DomainTooSmallError, match="domain too small") as err:
            evolve(soliton(small_grid), 0.01, SolverConfig(dt=1e-3, record_every=1))
        assert err.value.time == 0.001
        assert "hold 2.58e-08 of the peak coefficient: the grid may be too coarse" in str(err.value)

    @pytest.mark.parametrize("centers", [(40.0, -40.0), (39.0,)])
    def test_datum_on_the_edge_does_not_blame_the_grid(self, default_grid, centers):
        # a bump across the seam is periodic and resolved; one at x = 39 jumps at the seam, so its
        # modes past the band hold 1e-2 of the peak, still far under its edge value
        u = sum(1.0 / np.cosh(default_grid.x - c) ** 2 for c in centers)
        with pytest.raises(DomainTooSmallError, match="domain too small") as err:
            check_boundary_smallness(forward_transform(u, default_grid))
        assert "of the peak coefficient" in str(err.value)
        assert "too coarse" not in str(err.value)
