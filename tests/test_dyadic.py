"""Dyadic bumps, frequency/modulation projections and the X-type norms."""
import math
import warnings

import numpy as np
import pytest

from kdvrad.bumps import (chi, covering_indices, dyadic_bands, dyadic_bump,
                          smooth_step)
from kdvrad.dyadic import (block_l2_norms, free_evolution_norm_ratio,
                           modulation_blocks, project_pn, project_ql, x_norm,
                           xbar_norm)
from kdvrad.errors import TimeWindowTooShortError
from kdvrad.gevrey import hs_norm
from kdvrad.grid import (GridSpec, SpectralField, dealiased_product,
                         forward_transform)
from kdvrad.spacetime import (SpacetimeField, SpacetimeSpectrum, airy_spacetime,
                              inverse_spacetime_transform, spacetime_transform)

from conftest import random_band_field


@pytest.fixture(scope="module")
def st_grid():
    return GridSpec(256, 40.0)


class TestBumps:
    def test_plateau_value(self):
        assert dyadic_bump(1, 0.5) == 1.0
        assert chi(np.array([0.0, 1.0, -1.0])).tolist() == [1.0, 1.0, 1.0]

    def test_outside_support(self):
        assert dyadic_bump(4, 100.0) == 0.0
        assert dyadic_bump(4, 1.99) == 0.0  # below n/2

    def test_range(self):
        s = np.linspace(-70, 70, 20001)
        for n in (1, 2, 8, 32):
            b = dyadic_bump(n, s)
            assert np.all(b >= 0.0) and np.all(b <= 1.0)

    def test_partition_of_unity(self):
        # sum over N in {1..2^10} equals 1 for 0 < |xi| <= 2^9 (and at 0)
        xi = np.linspace(-512, 512, 4097)
        total = sum(dyadic_bump(n, xi) for n in covering_indices(2 ** 10))
        assert np.max(np.abs(total - 1.0)) < 1e-14

    @pytest.mark.parametrize("indices", [covering_indices(3000), [4, 8, 16, 32],
                                         [2, 8, 16, 1, 64]])
    def test_dyadic_bands_equal_dyadic_bump_bitwise(self, rng, indices):
        # telescoped chi(s/n) - chi(s/(n/2)) versus chi(s/n) - chi(2s/n)
        s = np.concatenate([rng.uniform(-3000.0, 3000.0, (64, 96)).ravel(),
                            2.0 ** np.arange(-3, 13), [0.0, 5e-324]])
        bands = list(dyadic_bands(indices, s))
        assert [n for n, _ in bands] == list(indices)
        for n, wgt in bands:
            assert np.array_equal(wgt, dyadic_bump(n, s))


def glue(t):
    """Closed-form exp(-1/t) step evaluated in scalar float arithmetic."""
    if math.isnan(t):
        return math.nan
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    a = math.exp(-1.0 / t)
    b = math.exp(-1.0 / (1.0 - t))
    return a / (a + b)


class TestSmoothStep:
    EDGES = [-np.inf, -1.0, 0.0, 5e-324, 1e-3, 0.5, 1.0 - 1e-16, 1.0, 2.0,
             np.inf, np.nan]

    def test_scalar_edge_values(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in self.EDGES:
                out = smooth_step(t)
                assert isinstance(out, np.float64) and np.ndim(out) == 0
                want = glue(t)
                assert out == want or (math.isnan(want) and math.isnan(out))

    def test_array_edge_values(self):
        want = np.array([glue(t) for t in self.EDGES])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for shape in ((len(self.EDGES),), (len(self.EDGES), 1)):
                out = smooth_step(np.reshape(self.EDGES, shape))
                assert isinstance(out, np.ndarray) and out.shape == shape
                assert out.dtype == np.float64
                np.testing.assert_array_equal(out.ravel(), want)
            assert smooth_step(np.zeros((0, 3))).shape == (0, 3)

    def test_ramp_matches_closed_form(self):
        t = np.linspace(0.01, 0.99, 99)
        want = np.array([glue(v) for v in t])
        np.testing.assert_allclose(smooth_step(t), want, rtol=1e-14, atol=0.0)


class TestProjectPN:
    def test_single_mode_split_between_neighbors(self, st_grid):
        xi_mode = st_grid.xi[39]  # on-grid frequency ~3.06
        f = forward_transform(np.cos(xi_mode * st_grid.x), st_grid)
        # xi ~ 3 sits in the overlap of the N=2 and N=4 bands
        xi_bin = st_grid.xi[np.argmax(np.abs(f.coeffs))]
        b2, b4 = dyadic_bump(2, xi_bin), dyadic_bump(4, xi_bin)
        assert b2 + b4 == pytest.approx(1.0, abs=1e-14)
        p2 = project_pn(f, 2).l2_norm()
        p4 = project_pn(f, 4).l2_norm()
        others = sum(project_pn(f, n).l2_norm()
                     for n in (1, 8, 16, 32, 64)) / f.l2_norm()
        assert p2 > 0 and p4 > 0 and others < 1e-12

    def test_constant_lives_in_low_block(self, st_grid):
        f = forward_transform(np.ones(st_grid.num_points), st_grid)
        assert project_pn(f, 1).l2_norm() == pytest.approx(f.l2_norm(), rel=1e-13)
        assert project_pn(f, 2).l2_norm() == 0.0

    def test_reconstruction(self, st_grid, rng):
        f = random_band_field(st_grid, rng)
        f.coeffs[0] = 0.7  # include a mean component
        total = np.zeros_like(f.coeffs)
        for n in covering_indices(st_grid.nyquist_xi):
            total += project_pn(f, n).coeffs
        assert np.max(np.abs(total - f.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))

    def test_contraction(self, st_grid, rng):
        f = random_band_field(st_grid, rng)
        for n in (1, 4, 16):
            assert project_pn(f, n).l2_norm() <= f.l2_norm() * (1 + 1e-13)

    def test_idempotence_up_to_overlap(self, st_grid, rng):
        # on fields spread over the strict band [N/sqrt(2), sqrt(2) N] the
        # double projection keeps at least half the single-projection norm
        n = 16
        lo, hi = n / np.sqrt(2), np.sqrt(2) * n
        coeffs = np.zeros(st_grid.num_points, dtype=complex)
        sel = (np.abs(st_grid.xi) >= lo) & (np.abs(st_grid.xi) <= hi)
        coeffs[sel] = 1.0
        idx = np.flatnonzero(sel)
        coeffs[idx] *= np.exp(1j * rng.uniform(0, 2 * np.pi, idx.size))
        f = SpectralField(st_grid, coeffs)
        once = project_pn(f, n)
        twice = project_pn(once, n)
        assert twice.l2_norm() >= 0.5 * once.l2_norm()

    def test_support_condition_product_vanishes(self, st_grid, rng):
        # P_N3 (P_N1 u * P_N2 v) vanishes when N_max is separated from N_med
        u = random_band_field(st_grid, rng)
        v = random_band_field(st_grid, rng)
        u1 = project_pn(u, 2)
        v2 = project_pn(v, 2)
        prod = dealiased_product(u1, v2)
        high = project_pn(prod, 32)  # 32 > 4 * max(2, 2): bands cannot meet
        assert high.l2_norm() < 1e-12 * max(prod.l2_norm(), 1e-300)
        mid = project_pn(prod, 4)   # N_max ~ N_med: generically nonzero
        assert mid.l2_norm() > 1e-6 * prod.l2_norm()


def single_airy_mode(grid, mode=8, extra_phase_rate=0.0, nt=128, window=2.0):
    """cos(xi0 x + (xi0^3 + M) t) sampled on [-window, window]."""
    xi0 = mode * np.pi / grid.half_length
    t = np.linspace(-window, window, nt)
    tt, xx = np.meshgrid(t, grid.x, indexing="ij")
    vals = np.cos(xi0 * xx + (xi0 ** 3 + extra_phase_rate) * tt)
    return SpacetimeField(grid, -window, window, vals), xi0


class TestProjectQL:
    def test_airy_mass_in_low_modulation(self, st_grid):
        f, _ = single_airy_mode(st_grid)
        spec = spacetime_transform(f)
        power = np.abs(spec.values) ** 2
        lam = np.abs(spec.modulation())
        low = sum(dyadic_bump(l, lam) ** 2 * power for l in (1, 2, 4)).sum()
        assert low >= 0.95 * power.sum()

    def test_modulation_shift_lands_in_expected_band(self, st_grid):
        m = 64.0  # large detuning from the characteristic
        f, xi0 = single_airy_mode(st_grid, extra_phase_rate=m)
        norms = {}
        for l in (1, 4, 16, 64, 256):
            norms[l] = project_ql(f, l).l2_norm()
        assert max(norms, key=norms.get) == 64

    def test_zero_field(self, st_grid):
        f = SpacetimeField(st_grid, -2.0, 2.0,
                           np.zeros((64, st_grid.num_points)))
        assert project_ql(f, 4).l2_norm() == 0.0

    def test_block_sum_reconstructs_tapered_field(self, st_grid):
        rng = np.random.default_rng(8)
        t = np.linspace(-2, 2, 64)
        tt, xx = np.meshgrid(t, st_grid.x, indexing="ij")
        vals = np.cos(0.9 * xx - 2.0 * tt) * np.exp(-(xx / 15.0) ** 2)
        f = SpacetimeField(st_grid, -2.0, 2.0, vals)
        spec = spacetime_transform(f)
        total = np.zeros_like(f.tapered_values())
        for l in modulation_blocks(spec):
            total += project_ql(f, l).values
        ref = f.tapered_values()
        assert np.max(np.abs(total - ref)) < 1e-10 * np.max(np.abs(ref))

    def test_contraction(self, st_grid):
        f, _ = single_airy_mode(st_grid)
        for l in (1, 8, 64):
            assert project_ql(f, l).l2_norm() <= f.l2_norm() * (1 + 1e-12)

    def test_coarse_window_rejected(self, st_grid):
        t = np.linspace(0.0, 0.5, 16)
        vals = np.cos(st_grid.x)[None, :] * np.cos(t)[:, None]
        f = SpacetimeField(st_grid, 0.0, 0.5, vals)
        with pytest.raises(TimeWindowTooShortError):
            project_ql(f, 1, pad=1)


class TestXNorm:
    def test_zero(self, st_grid):
        f = SpacetimeField(st_grid, -2.0, 2.0,
                           np.zeros((64, st_grid.num_points)))
        assert x_norm(f) == 0.0

    def test_single_band_value(self, st_grid):
        # modulation placed exactly at lambda = L0, where only band L0 is active
        l0 = 64
        f, _ = single_airy_mode(st_grid, extra_phase_rate=float(l0))
        measured = x_norm(f)
        assert measured == pytest.approx(np.sqrt(l0) * f.l2_norm(), rel=0.05)

    def test_airy_wave_within_factor_four(self, st_grid):
        f, _ = single_airy_mode(st_grid)
        r = x_norm(f) / f.l2_norm()
        assert 1.0 / 4.0 <= r <= 4.0


class TestXbarNorm:
    def test_zero_report(self, st_grid):
        f = SpacetimeField(st_grid, -2.0, 2.0,
                           np.zeros((64, st_grid.num_points)))
        rep = xbar_norm(f, s=-0.75)
        assert rep.xbar_s == 0.0 and rep.low_freq_maximal == 0.0

    def test_low_frequency_only_content(self, st_grid):
        t = np.linspace(-2, 2, 64)
        tt, xx = np.meshgrid(t, st_grid.x, indexing="ij")
        vals = np.cos(0.3 * xx) * np.exp(-(xx / 15.0) ** 2) * (1.0 + 0 * tt)
        f = SpacetimeField(st_grid, -2.0, 2.0, vals)
        rep_a = xbar_norm(f, s=-0.75)
        rep_b = xbar_norm(f, s=2.0)
        # content at |xi| <= 0.4 sits mostly in the N = 1 block
        assert rep_a.xbar_s == pytest.approx(rep_a.low_freq_maximal, rel=1e-4)
        assert rep_a.xbar_s == pytest.approx(rep_b.xbar_s, rel=1e-3)

    def test_single_band_weight(self, st_grid):
        f, _ = single_airy_mode(st_grid)  # mode 8: band N = 8 (xi ~ 0.98)...
        s = -0.75
        rep = xbar_norm(f, s)
        recon = rep.reconstruction_defect()
        assert recon < 1e-12

    def test_single_block_matches_weighted_x_norm(self, st_grid):
        # spatial mode index 102 -> xi ~ 8.01: inside the N = 8 band plateau
        f, xi0 = single_airy_mode(st_grid, mode=102)
        assert dyadic_bump(8, xi0) == pytest.approx(1.0, abs=1e-12)
        s = -0.75
        rep = xbar_norm(f, s)
        expected = 8.0 ** s * rep.x_norm_per_n[8]
        assert rep.xbar_s == pytest.approx(expected, rel=0.05)


def brute_block_norms(spec, l_list):
    """||Q_l u|| per band with one dyadic_bump evaluation per band."""
    lam = spec.modulation()
    power = np.abs(spec.values) ** 2
    return {l: np.sqrt(np.sum(dyadic_bump(l, lam) ** 2 * power) * spec.weight)
            for l in l_list}


def brute_xbar(field, s):
    """xbar^s with dyadic_bump re-evaluated on the full grid per (N, L) pair."""
    spec = spacetime_transform(field)
    lam = spec.modulation()
    per_n = {}
    for n in covering_indices(field.grid.nyquist_xi):
        blocked = spec.values * dyadic_bump(n, spec.xi)[None, :]
        if n == 1:
            low = SpacetimeSpectrum(values=blocked, tau=spec.tau, xi=spec.xi,
                                    dtau=spec.dtau, dxi=spec.dxi, field=spec.field)
            sup_t = np.max(np.abs(inverse_spacetime_transform(low).values), axis=0)
            per_n[1] = np.sqrt(np.sum(sup_t ** 2) * field.grid.dx)
            continue
        power = np.abs(blocked) ** 2
        per_n[n] = sum(np.sqrt(l) * np.sqrt(np.sum(dyadic_bump(l, lam) ** 2 * power)
                                            * spec.weight)
                       for l in modulation_blocks(spec))
    total = per_n[1] ** 2 + sum(n ** (2 * s) * v ** 2 for n, v in per_n.items() if n > 1)
    tau_max = np.max(np.abs(spec.tau))
    truncated = [l for l in modulation_blocks(spec) if 2 * l > tau_max]
    return np.sqrt(total), per_n, truncated


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("s", [0.0, 0.5, -0.75])
    def test_xbar_norm(self, st_grid, s):
        rng = np.random.default_rng(int(100 * (s + 1)))
        for _ in range(2):
            st = airy_spacetime(random_band_field(st_grid, rng, max_mode=24),
                                -2.0, 2.0, 64)
            want, want_per_n, want_truncated = brute_xbar(st, s)
            rep = xbar_norm(st, s)
            assert rep.truncated_l == want_truncated and want_truncated
            assert rep.xbar_s == pytest.approx(want, rel=1e-13, abs=0.0)
            assert rep.x_norm_per_n.keys() == want_per_n.keys()
            for n, v in want_per_n.items():
                assert rep.x_norm_per_n[n] == pytest.approx(v, rel=1e-13, abs=0.0)

    def test_block_l2_norms_and_x_norm(self, st_grid, rng):
        for mode in (8, 24):
            st = airy_spacetime(random_band_field(st_grid, rng, max_mode=mode),
                                -2.0, 2.0, 64)
            spec = spacetime_transform(st)
            l_all = modulation_blocks(spec)
            for l_list in (None, [2, 8, 16, 1]):
                got = block_l2_norms(spec, l_list)
                want = brute_block_norms(spec, l_all if l_list is None else l_list)
                assert got.keys() == want.keys()
                for l, v in want.items():
                    assert got[l] == pytest.approx(v, rel=1e-13, abs=0.0)
            want_x = sum(np.sqrt(l) * v for l, v in brute_block_norms(spec, l_all).items())
            assert x_norm(st) == pytest.approx(want_x, rel=1e-13, abs=0.0)


class TestFreeEvolutionRatio:
    def test_single_low_mode_finite(self, st_grid):
        f = forward_transform(np.cos(np.pi * st_grid.x / st_grid.half_length)
                              * np.exp(-(st_grid.x / 15.0) ** 2), st_grid)
        r = free_evolution_norm_ratio(f, s=0.0)
        assert np.isfinite(r) and r > 0

    def test_empirical_constant_bounded(self, st_grid):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(100):
            f = random_band_field(st_grid, rng, max_mode=24)
            worst = max(worst, free_evolution_norm_ratio(f, s=0.0,
                                                         num_time_samples=96))
        assert worst < 10.0

    def test_homogeneity(self, st_grid, rng):
        f = random_band_field(st_grid, rng, max_mode=16)
        r1 = free_evolution_norm_ratio(f, s=0.0)
        r2 = free_evolution_norm_ratio(2.0 * f, s=0.0)
        assert r2 == pytest.approx(r1, rel=1e-12)
