"""Dyadic bumps, frequency/modulation projections and the X-type norms."""
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kdvrad import bilinear, bumps, dyadic, spacetime
from kdvrad.bilinear import WavePacketField
from kdvrad.bumps import (band_share, band_split, chi, covering_indices, dyadic_bump,
                          smooth_step)
from kdvrad.dyadic import NormReport, x_sum, xbar_norm
from kdvrad.errors import TimeWindowTooShortError
from kdvrad.grid import GridSpec, SpectralField, airy_phase, forward_transform
from kdvrad.solver import SolverConfig, Trajectory, evolve
from kdvrad.spacetime import PAD, airy_spacetime, spacetime_transform, temporal_taper

from conftest import (complex_dealiased_product, continuum_x_norms, free_evolution_norm_ratio,
                      inverse_spacetime_transform, project_pn, project_ql, random_band_field,
                      sampled_spacetime, spacetime_l2_norm, window, with_taper)


@pytest.fixture(scope="module")
def st_grid():
    return GridSpec(256, 40.0)


def two_cutoff_bump(n, s):
    """beta_n written out: chi(s) for n = 1, chi(s/n) - chi(2s/n) above."""
    s = np.asarray(s, dtype=float)
    return chi(s) if n == 1 else chi(s / n) - chi(2.0 * s / n)


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
    def test_band_split_equals_dyadic_bump_bitwise(self, rng, indices):
        # c = chi(|s|/2^j) in band 2^j and 1 - c in band 2^(j+1), through band_share and
        # through dyadic_bump, versus the two cutoffs chi(s/n) - chi(2s/n) written out
        s = np.concatenate([rng.uniform(-3000.0, 3000.0, (64, 96)).ravel(),
                            2.0 ** np.arange(-3, 13), [0.0, 5e-324]])
        j, c = band_split(s)
        for n in indices:
            want = two_cutoff_bump(n, s)
            assert np.array_equal(band_share(j, n.bit_length() - 1, c, 1.0 - c), want)
            assert np.array_equal(dyadic_bump(n, s), want)
            assert dyadic_bump(n, s[5]) == want[5] and np.ndim(dyadic_bump(n, s[5])) == 0

    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dyadic_bump_refuses_a_non_finite_point(self, bad, n):
        for s in (bad, np.array([0.5, 3.0, bad])):
            with pytest.raises(ValueError, match=f"non-finite point {bad}"):
                dyadic_bump(n, s)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_covering_indices_refuses_a_non_finite_bound(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            covering_indices(bad)


def masked_smooth_step(t):
    """The step evaluated on the open ramp only, with the ends and nan filled in by masks."""
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 1.0, 1.0, np.where(np.isnan(t), np.nan, 0.0))
    ramp = (t > 0.0) & (t < 1.0)
    with np.errstate(over="ignore"):  # -1/t overflows to -inf for subnormal t
        a, b = np.exp(-1.0 / t[ramp]), np.exp(-1.0 / (1.0 - t[ramp]))
    out[ramp] = a / (a + b)
    return out[()]


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
    EDGES = [-np.inf, -1.0, -0.0, 0.0, 5e-324, 1e-310, 1e-3, 0.5, 1.0 - 1e-16,
             np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 2.0, np.inf, np.nan]

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

    def test_equals_the_masked_step_bitwise(self, rng):
        for t in (rng.uniform(-0.5, 1.5, 1000), rng.uniform(-0.5, 1.5, (384, 129)).T,
                  rng.uniform(0.0, 1.0, (7, 3, 5))[..., ::2], np.array(self.EDGES)):
            assert np.array_equal(smooth_step(t), masked_smooth_step(t), equal_nan=True)
        for v in rng.uniform(0.0, 1.0, 50):
            assert smooth_step(v) == masked_smooth_step(v)


class TestProjectPN:
    def test_single_mode_split_between_neighbors(self, st_grid):
        xi_mode = st_grid.xi[39]  # on-grid frequency ~3.06
        f = forward_transform(np.cos(xi_mode * st_grid.x), st_grid)
        # xi ~ 3 sits in the overlap of the N=2 and N=4 bands
        xi_bin = st_grid.xi[np.argmax(np.abs(f.half))]
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
        f.half[0] = 0.7  # include a mean component
        total = np.zeros_like(f.coeffs)
        for n in covering_indices(st_grid.xi[-1]):
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
        sel = (st_grid.xi >= lo) & (st_grid.xi <= hi)
        half = np.where(sel, np.exp(1j * rng.uniform(0, 2 * np.pi, sel.size)), 0.0)
        f = SpectralField(st_grid, half)
        once = project_pn(f, n)
        twice = project_pn(once, n)
        assert twice.l2_norm() >= 0.5 * once.l2_norm()

    def test_support_condition_product_vanishes(self, st_grid, rng):
        # P_N3 (P_N1 u * P_N2 v) vanishes when N_max is separated from N_med
        u = random_band_field(st_grid, rng)
        v = random_band_field(st_grid, rng)
        u1 = project_pn(u, 2)
        v2 = project_pn(v, 2)
        prod = complex_dealiased_product(u1, v2)
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
    return sampled_spacetime(grid, -window, window, vals), xi0


class TestProjectQL:
    def test_airy_mass_in_low_modulation(self, st_grid):
        f, _ = single_airy_mode(st_grid)
        spec = spacetime_transform(f)
        power = np.abs(spec.values) ** 2
        lam = np.abs(spec.lam)[:, None]
        low = sum(dyadic_bump(l, lam) ** 2 * power for l in (1, 2, 4)).sum()
        assert low >= 0.95 * power.sum()

    def test_modulation_shift_lands_in_expected_band(self, st_grid):
        m = 64.0  # large detuning from the characteristic
        f, xi0 = single_airy_mode(st_grid, extra_phase_rate=m)
        norms = {}
        for l in (1, 4, 16, 64, 256):
            norms[l] = spacetime_l2_norm(project_ql(f, l))
        assert max(norms, key=norms.get) == 64

    def test_zero_field(self, st_grid):
        f = sampled_spacetime(st_grid, -2.0, 2.0, np.zeros((64, st_grid.num_points)))
        assert spacetime_l2_norm(project_ql(f, 4)) == 0.0

    def test_block_sum_reconstructs_tapered_field(self, st_grid):
        rng = np.random.default_rng(8)
        t = np.linspace(-2, 2, 64)
        tt, xx = np.meshgrid(t, st_grid.x, indexing="ij")
        vals = np.cos(0.9 * xx - 2.0 * tt) * np.exp(-(xx / 15.0) ** 2)
        f = sampled_spacetime(st_grid, -2.0, 2.0, vals)
        spec = spacetime_transform(f)
        total = np.zeros_like(vals)
        for l in covering_indices(np.max(np.abs(spec.lam))):
            total += project_ql(f, l).field.values()
        t_a, t_b, _, times = window(f)
        ref = vals * temporal_taper(times, t_a, t_b)[:, None]
        assert np.max(np.abs(total - ref)) < 1e-10 * np.max(np.abs(ref))

    def test_contraction(self, st_grid):
        f, _ = single_airy_mode(st_grid)
        bound = spacetime_l2_norm(with_taper(f)) * (1 + 1e-12)
        for l in (1, 8, 64):
            assert spacetime_l2_norm(project_ql(f, l)) <= bound

    def test_coarse_window_rejected(self, st_grid):
        t = np.linspace(0.0, 0.5, 16)
        vals = np.cos(st_grid.x)[None, :] * np.cos(t)[:, None]
        f = sampled_spacetime(st_grid, 0.0, 0.5, vals)
        with pytest.raises(TimeWindowTooShortError):
            xbar_norm(f, 0.0)


def plane_x_norm(field):
    """X norm sum_L L^(1/2) ||Q_L field|| over every band present on the grid, on the shared
    reduction: the lam band matrix times the (lam x xi) power, summed over the xi columns."""
    spec = spacetime_transform(field)
    l_list, bands = bumps.band_stack(spec.lam, 1.0)
    return float(x_sum(l_list, (bands @ spec.power()).sum(axis=1), spec.weight))


def per_band_masses(lam, power):
    """{L: M_L} for every band covering max|lam|, with the two cutoffs per band."""
    masses = {}
    for l in covering_indices(np.max(np.abs(lam), initial=1.0)):
        wgt = two_cutoff_bump(l, lam)
        masses[l] = np.sum(wgt * wgt * power, axis=0)
    return masses


class TestModulationMasses:
    @pytest.mark.parametrize("n, nt", [(256, 96), (64, 16)])
    def test_lam_band_matrix_equals_the_per_band_loop_bitwise(self, n, nt, rng):
        # row L of B is beta_L(lam)^2 for every band covering max|lam|: on the lam grid of a
        # spectrum, and at |lam| = 2^j exactly, |lam| < 1, 0 and the smallest subnormal
        st = airy_spacetime(random_band_field(GridSpec(n, 40.0), rng, max_mode=n // 10),
                            -2.0, 2.0, nt)
        edges = np.array([4.0, -8.0, 2.0 ** 20, 1.0, -1.0, 0.75, -0.5, 0.0, 5e-324, -5e-324])
        for lam in (spacetime_transform(st).lam, edges, rng.uniform(8.0, 64.0, 30)):
            l_list, bands = bumps.band_stack(lam, 1.0)
            assert l_list == covering_indices(np.max(np.abs(lam), initial=1.0))
            assert bands.shape == (len(l_list), lam.size)
            for l, row in zip(l_list, bands):
                assert np.array_equal(row, two_cutoff_bump(l, lam) ** 2)

    @staticmethod
    def check_cloud(lam, power):
        # the cloud layout: the band stack of one row, summed by the cloud row sums
        l_list, masses = bilinear._band_masses(lam, power, np.array([lam.size]))
        want = per_band_masses(lam, power)
        assert l_list == list(want)
        assert masses.shape == (len(l_list), 1)
        for l, m in zip(l_list, masses):
            assert np.array_equal(m[0], want[l])

    def test_clouds_equal_the_per_band_loop_bitwise(self, rng):
        # |lam| = 2^j exactly, |lam| < 1, 0 and the smallest subnormal
        edges = np.array([4.0, -8.0, 2.0 ** 20, 1.0, -1.0, 0.75, -0.5, 0.0, 5e-324, -5e-324])
        lam = np.concatenate([edges, rng.uniform(-300.0, 300.0, 200)])
        power = rng.uniform(0.0, 2.0, lam.size)
        self.check_cloud(lam, power)
        self.check_cloud(edges, power[:edges.size])
        self.check_cloud(rng.uniform(8.0, 64.0, 30), power[:30])  # bands below 4 hold nothing
        for cell in (-64.0, 3.0, 0.5, 0.0):
            self.check_cloud(np.array([cell]), np.array([1.5]))
        self.check_cloud(np.array([]), np.array([]))

    def test_cloud_rows_equal_the_per_band_loop_bitwise(self, rng):
        # ragged rows: each row's masses are its own, exact zeros past the row's own cover
        lam = np.concatenate([rng.uniform(-3.0, 3.0, 10), rng.uniform(-300.0, 300.0, 37),
                              [2.0 ** 12, 0.5]])
        power = rng.uniform(0.0, 2.0, lam.size)
        ends = np.array([10, 47, 49])
        l_list, masses = bilinear._band_masses(lam, power, ends)
        assert l_list == covering_indices(2.0 ** 12)
        for r, (a, b) in enumerate(zip([0, *ends[:-1]], ends)):
            want = per_band_masses(lam[a:b], power[a:b])
            got = masses[:, r]
            assert all(np.array_equal(got[i], want[l]) for i, l in enumerate(want))
            assert not got[len(want):].any()

    def test_one_band_split_and_no_band_share_per_reduction(self, monkeypatch, st_grid, rng):
        calls = []
        for module in (bumps, dyadic):
            for name in ("band_split", "band_share"):
                fn = getattr(module, name)
                monkeypatch.setattr(module, name,
                                    lambda *a, _n=name, _f=fn: calls.append(_n) or _f(*a))
        st = airy_spacetime(random_band_field(st_grid, rng, max_mode=24), -2.0, 2.0, 96)
        bumps.band_stack(spacetime_transform(st).lam, 1.0)
        assert calls == ["band_split"]
        calls.clear()
        WavePacketField([0, 0, 1, 1], [1.5, 3.0, -4.0, 40.0], [1.0, 2.0, 1j, 3.0], 0.1,
                        0.5).x_norm()
        assert calls == ["band_split"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_a_non_finite_modulation(self, bad):
        # in both layouts: the lam band matrix and the cloud rows
        with pytest.raises(ValueError, match="non-finite"):
            bumps.band_stack(np.array([1.0, bad]), 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            bilinear._band_masses(np.array([1.0, bad]), np.ones(2), np.array([2]))


def test_one_chi_call_per_cell(monkeypatch, st_grid, rng):
    st = airy_spacetime(random_band_field(st_grid, rng, max_mode=24), -2.0, 2.0, 96)
    cloud = WavePacketField([0, 0, 0], [1.5, 3.0, -4.0], [1.0, 2.0, 1j], 0.1, 0.5)
    assert len(bilinear._band_masses(cloud.modulation, np.ones(3), cloud.ends)[0]) == 3
    calls = []
    step = bumps.smooth_step
    monkeypatch.setattr(bumps, "smooth_step", lambda t: calls.append(np.size(t)) or step(t))
    # the time taper over nt, the xi bands over the columns, the lam bands over the PAD nt lam
    # points, on every call: nothing over the (lam x xi) plane, and nothing cached
    for field in (st, st, airy_spacetime(st.field[0], -2.0, 2.0, 16),
                  airy_spacetime(random_band_field(GridSpec(64, 40.0), rng, max_mode=6),
                                 -2.0, 2.0, 16)):
        calls.clear()
        xbar_norm(field, 0.0)
        assert calls == [len(field), field.grid.num_points // 2 + 1, PAD * len(field)]
    calls.clear()
    cloud.x_norm()
    assert calls == [3]


def report_bits(rep):
    """Every value of a NormReport, floats as hex."""
    return (rep.s, rep.low_freq_maximal.hex(), rep.xbar_s.hex(),
            [(n, v.hex()) for n, v in rep.x_norm_per_n.items()], rep.nyquist_share.hex(),
            rep.truncated_l)


class TestWindowGeometry:
    @pytest.mark.parametrize("nt", [16, 96])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_cold_and_warm_calls_equal_the_uncached_formulas_bitwise(self, n, nt):
        # the Airy phase is read from the cache by airy_spacetime and again, conjugated, by the
        # transform: one miss, then hits
        g = GridSpec(n, 40.0)
        f = random_band_field(g, np.random.default_rng(n + nt), max_mode=n // 10)
        rows = SpectralField(g, f.half * airy_phase(g.xi, np.linspace(-2.0, 2.0, nt)[:, None]))
        spacetime._airy_window.cache_clear()
        for warm in (False, True):
            st = airy_spacetime(f, -2.0, 2.0, nt)
            assert st.field.half.tobytes() == rows.half.tobytes()
            for s in (0.0, 0.5, -0.75):
                assert report_bits(xbar_norm(st, s)) == report_bits(whole_plane_xbar(st, s)[1])
            assert spacetime._airy_window.cache_info()[:2] == (3 + 4 * warm, 1)

    def test_cached_arrays_and_times_are_read_only(self, st_grid, rng):
        st = airy_spacetime(random_band_field(st_grid, rng, max_mode=24), -2.0, 2.0, 96)
        xbar_norm(st, 0.0)
        times, phase = spacetime._airy_window(st_grid, -2.0, 2.0, 96)
        assert st.times is times
        for a in (times, phase):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0


class TestXNorm:
    def test_zero(self, st_grid):
        f = sampled_spacetime(st_grid, -2.0, 2.0, np.zeros((64, st_grid.num_points)))
        assert plane_x_norm(f) == 0.0

    def test_single_band_value(self, st_grid):
        # modulation placed exactly at lambda = L0, where only band L0 is active
        l0 = 64
        f, _ = single_airy_mode(st_grid, extra_phase_rate=float(l0))
        measured = plane_x_norm(f)
        assert measured == pytest.approx(np.sqrt(l0) * spacetime_l2_norm(with_taper(f)),
                                         rel=0.05)

    def test_airy_wave_within_factor_four(self, st_grid):
        f, _ = single_airy_mode(st_grid)
        r = plane_x_norm(f) / spacetime_l2_norm(with_taper(f))
        assert 1.0 / 4.0 <= r <= 4.0


class TestXbarNorm:
    def test_zero_report(self, st_grid):
        f = sampled_spacetime(st_grid, -2.0, 2.0, np.zeros((64, st_grid.num_points)))
        rep = xbar_norm(f, s=-0.75)
        assert rep.xbar_s == 0.0 and rep.low_freq_maximal == 0.0 and rep.nyquist_share == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_s_is_refused(self, st_grid, bad):
        f, _ = single_airy_mode(st_grid)
        with pytest.raises(ValueError, match=f"s must be finite, got {bad}"):
            xbar_norm(f, bad)

    def test_low_frequency_only_content(self, st_grid):
        t = np.linspace(-2, 2, 64)
        tt, xx = np.meshgrid(t, st_grid.x, indexing="ij")
        vals = np.cos(0.3 * xx) * np.exp(-(xx / 15.0) ** 2) * (1.0 + 0 * tt)
        f = sampled_spacetime(st_grid, -2.0, 2.0, vals)
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

    @staticmethod
    def evolve_gap(grid, a):
        """Largest gap, relative to xbar_s, between the report of an ``evolve`` run of
        a exp(-(x/4)^2) cos(x/2) over [0, 1] (101 records) and that of its free evolution."""
        f = forward_transform(a * np.exp(-(grid.x / 4.0) ** 2) * np.cos(grid.x / 2.0), grid)
        traj = evolve(f, 1.0, SolverConfig(dt=1e-3, record_every=10))
        assert len(traj) == 101
        got, want = xbar_norm(traj, 0.5), xbar_norm(airy_spacetime(f, 0.0, 1.0, 101), 0.5)
        assert got.x_norm_per_n.keys() == want.x_norm_per_n.keys()
        gaps = [abs(got.xbar_s - want.xbar_s)]
        gaps += [abs(got.x_norm_per_n[n] - v) for n, v in want.x_norm_per_n.items()]
        return max(gaps) / want.xbar_s

    def test_reads_an_evolve_trajectory_with_the_linear_limit_as_oracle(self, st_grid):
        # the gap is the nonlinearity, linear in the amplitude (4.71e-10 at a = 1e-8, 100.0x that
        # at 1e-6), not the pipeline: the solver's records feed the norm as the Airy rows do
        small = self.evolve_gap(st_grid, 1e-8)
        assert small <= 1e-9
        assert self.evolve_gap(st_grid, 1e-6) / small == pytest.approx(100.0, rel=0.01)

    def test_refuses_an_evolve_trajectory_with_a_short_last_record(self, st_grid):
        # T = 1.005 takes its last record 5 steps after the one before, not 10
        f = forward_transform(1e-8 * np.exp(-(st_grid.x / 4.0) ** 2), st_grid)
        traj = evolve(f, 1.005, SolverConfig(dt=1e-3, record_every=10))
        with pytest.raises(ValueError, match="not uniform: a spacing departs by 0.00495"):
            xbar_norm(traj, 0.5)

    def test_evolve_blocks_converge_in_nt(self, st_grid):
        # 8 exp(-x^2) over [0, 2], recorded every step of dt = 2/2048: the nt = 257 trajectory
        # is every 8th record.  Measured at 257 against 2049: -5.0e-5 / -1.8e-4 / -1.0e-4 /
        # -2.1e-4 at N = 1 / 2 / 4 / 8; the bound 3e-4 leaves 1.4x.  The grid is too coarse for
        # the boundary gate, which is off: the blocks are the same on any grid run
        f = forward_transform(8.0 * np.exp(-st_grid.x ** 2), st_grid)
        traj = evolve(f, 2.0, SolverConfig(dt=2.0 / 2048, record_every=1, check_boundary=False))
        assert len(traj) == 2049
        fine = xbar_norm(traj, 0.5).x_norm_per_n
        coarse = xbar_norm(Trajectory(traj.times[::8], traj.field[::8]), 0.5).x_norm_per_n
        for n in (1, 2, 4, 8):
            assert abs(coarse[n] / fine[n] - 1.0) <= 3e-4


#: |relative error| of every N >= 2 block against the continuum oracle, per nt: the lam
#: quadrature at PAD = 4 measures +2.08e-3 at nt = 96 and -6.12e-3 at nt = 16
CONTINUUM_BOUND = {16: 6.5e-3, 96: 2.5e-3}


@pytest.mark.parametrize("nt", [16, 96])
@pytest.mark.parametrize("n", [64, 256])
def test_blocks_are_within_the_lam_quadrature_of_the_continuum_oracle(n, nt):
    # a broadband half-spectrum puts mass in every block up to the Nyquist frequency, whose free
    # waves have tau = xi^3 far past pi/dt at both nt; the separable form gives every block one
    # error, the lam quadrature's
    rng = np.random.default_rng(n + nt)
    f = SpectralField(GridSpec(n, 40.0), rng.standard_normal(n // 2 + 1)
                      + 1j * rng.standard_normal(n // 2 + 1))
    want = continuum_x_norms(f)
    got = xbar_norm(airy_spacetime(f, -2.0, 2.0, nt), 0.0).x_norm_per_n
    assert got.keys() - {1} == want.keys()
    errors = np.array([got[k] / v - 1.0 for k, v in want.items()])
    assert np.max(np.abs(errors)) <= CONTINUUM_BOUND[nt]
    assert np.ptp(errors) <= 1e-13


def column_weights(spec):
    """1 on the xi = 0 and Nyquist columns, 2 on the xi > 0 columns that stand for +-xi."""
    weight = np.full(spec.xi.size, 2.0)
    weight[[0, -1]] = 1.0
    return weight


def brute_block_norms(spec, l_list):
    """||Q_l u|| per band with one dyadic_bump evaluation per band, over the whole plane."""
    lam = spec.lam[:, None]
    power = np.abs(spec.values) ** 2 * column_weights(spec)
    return {l: np.sqrt(np.sum(dyadic_bump(l, lam) ** 2 * power) * spec.weight)
            for l in l_list}


def reduced_block_norms(spec):
    """||Q_l u|| per band from the shared reduction: sqrt(sum_xi M_l weight), M = B @ power."""
    l_list, bands = bumps.band_stack(spec.lam, 1.0)
    return {l: np.sqrt(np.sum(m) * spec.weight) for l, m in zip(l_list, bands @ spec.power())}


def brute_xbar(field, s):
    """xbar^s with dyadic_bump re-evaluated on the full grid per (N, L) pair, the Nyquist
    column left out of the X blocks and the low block by the inverse transform."""
    spec = spacetime_transform(field)
    lam = spec.lam[:, None]
    l_list = covering_indices(np.max(np.abs(lam)))
    per_n = {}
    for n in covering_indices(field.grid.xi[-1]):
        blocked = spec.values * dyadic_bump(n, spec.xi)[None, :]
        if n == 1:
            low = replace(spec, values=blocked)
            sup_t = np.max(np.abs(inverse_spacetime_transform(low).field.values()), axis=0)
            per_n[1] = np.sqrt(np.sum(sup_t ** 2) * field.grid.dx)
            continue
        power = (np.abs(blocked) ** 2 * column_weights(spec))[:, :-1]
        per_n[n] = sum(np.sqrt(l) * np.sqrt(np.sum(dyadic_bump(l, lam) ** 2 * power)
                                            * spec.weight)
                       for l in l_list)
    total = per_n[1] ** 2 + sum(n ** (2 * s) * v ** 2 for n, v in per_n.items() if n > 1)
    truncated = [l for l in l_list if 2 * l > np.max(np.abs(spec.lam))]
    return np.sqrt(total), per_n, truncated


def full_plane_norms(field, s):
    """(xbar^s, {l: ||Q_l u||}, X norm) over the whole (lam, xi) plane, both signs of xi: the
    tapered samples transformed by np.fft.fft along x over the whole grid, demodulated by
    exp(-i t xi^3), then by np.fft.fft along t zero-padded to 4x, with the continuous
    normalization dt dx (-1)^k exp(-i lam t_a) written out.  The real Nyquist column is left out
    of the X blocks; the low block goes back through both transforms."""
    g, nt = field.grid, len(field)
    t_a, t_b, dt, times = window(field)
    samples = field.field.values() * temporal_taper(times, t_a, t_b)[:, None]
    k = np.fft.fftfreq(g.num_points) * g.num_points
    xi = np.pi * k / g.half_length
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    demod = np.exp(-1j * times[:, None] * xi ** 3)
    lam = 2 * np.pi * np.fft.fftfreq(4 * nt, d=dt)
    factor = dt * g.dx * np.exp(-1j * lam * t_a)[:, None] * sign
    v = factor * np.fft.fft(np.fft.fft(samples, axis=1) * demod, n=4 * nt, axis=0)
    weight = (lam[1] - lam[0]) * (xi[1] - xi[0]) / (2 * np.pi) ** 2
    l_list = covering_indices(np.max(np.abs(lam)))

    def block(l, power):
        return np.sqrt(np.sum(dyadic_bump(l, lam)[:, None] ** 2 * power) * weight)

    power = np.abs(v) ** 2
    keep = k != -g.num_points // 2
    total = 0.0
    for n in covering_indices(np.max(np.abs(xi))):
        beta = dyadic_bump(n, xi)
        if n == 1:
            rows = np.fft.ifft(v * beta / factor, axis=0)[:nt] / demod
            u1 = np.real(np.fft.ifft(rows, axis=1))
            total += np.sum(np.max(np.abs(u1), axis=0) ** 2) * g.dx
        else:
            total += n ** (2 * s) * sum(np.sqrt(l) * block(l, (power * beta ** 2)[:, keep])
                                        for l in l_list) ** 2
    blocks = {l: block(l, power) for l in l_list}
    return np.sqrt(total), blocks, sum(np.sqrt(l) * b for l, b in blocks.items())


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
            l_all = covering_indices(np.max(np.abs(spec.lam)))
            got = reduced_block_norms(spec)
            want = brute_block_norms(spec, l_all)
            assert got.keys() == want.keys()
            for l, v in want.items():
                assert got[l] == pytest.approx(v, rel=1e-13, abs=0.0)
            want_x = sum(np.sqrt(l) * v for l, v in brute_block_norms(spec, l_all).items())
            assert plane_x_norm(st) == pytest.approx(want_x, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("s", [0.0, 0.5, -0.75])
    def test_against_the_full_plane_transform(self, st_grid, s):
        # the half plane drops only the mirror of the lam-Nyquist row, which
        # fftfreq holds at -lam_Nyquist alone
        rng = np.random.default_rng(int(100 * (s + 1)))
        st = airy_spacetime(random_band_field(st_grid, rng, max_mode=24), -2.0, 2.0, 96)
        want_xbar, want_blocks, want_x = full_plane_norms(st, s)
        assert xbar_norm(st, s).xbar_s == pytest.approx(want_xbar, rel=1e-6, abs=0.0)
        assert plane_x_norm(st) == pytest.approx(want_x, rel=1e-6, abs=0.0)
        got = reduced_block_norms(spacetime_transform(st))
        assert got.keys() == want_blocks.keys()
        # relative to the largest block: the top bands hold 1e-6 of it and less
        scale = max(want_blocks.values())
        assert max(abs(got[l] - v) for l, v in want_blocks.items()) <= 1e-6 * scale


def whole_plane_xbar(field, s):
    """(spectrum values, xbar^s report) from the formulas written out: the taper at the window
    times, the Airy phase of ``airy_phase`` (not the cache), the lam phase multiplied into a
    second plane, the bumps as two cutoffs, the other steps as ``xbar_norm`` takes them."""
    g, nt = field.grid, len(field)
    t_a, t_b, dt, times = window(field)
    lam = 2.0 * np.pi * np.fft.fftfreq(PAD * nt, d=dt)
    half = field.field.half * temporal_taper(times, t_a, t_b)[:, None]
    phase = airy_phase(g.xi, np.linspace(t_a, t_b, nt)[:, None])
    values = dt * np.exp(-1j * lam * t_a)[:, None] * np.fft.fft(half * phase.conj(), n=PAD * nt,
                                                                axis=0)
    power = np.abs(values) ** 2 * column_weights(g)
    n_list = covering_indices(g.xi[-1])
    betas = np.array([two_cutoff_bump(n, g.xi) for n in n_list])
    u1 = g.half_to_values(half * betas[0])
    low = float(np.sqrt(np.sum(np.max(np.abs(u1), axis=0) ** 2) * g.dx))
    mass = np.abs(half) ** 2 * column_weights(g)
    nyquist = float(np.sum(mass[:, -1]) / max(np.sum(mass), 1e-300))
    l_list = covering_indices(np.max(np.abs(lam)))
    bands = np.array([two_cutoff_bump(l, lam) ** 2 for l in l_list])
    weight = (lam[1] - lam[0]) * g.dxi / (2.0 * np.pi) ** 2
    x_high = x_sum(l_list, bands @ power[:, :-1] @ (betas[1:, :-1] ** 2).T, weight)
    x_per_n = {1: low, **{n: float(v) for n, v in zip(n_list[1:], x_high)}}
    xbar = np.sqrt(low ** 2 + sum(n ** (2 * s) * v ** 2 for n, v in x_per_n.items() if n > 1))
    truncated = [l for l in l_list if 2 * l > float(np.max(np.abs(lam)))]
    return values, NormReport(s=s, x_norm_per_n=x_per_n, low_freq_maximal=low,
                              xbar_s=float(xbar), nyquist_share=nyquist, truncated_l=truncated)


class TestColumnBlocks:
    """The frequency blocks P_N, each a block of xi columns of the (lam x xi) plane: the whole
    plane at once, the real Nyquist column left out, and the memory the plane takes."""

    @pytest.mark.parametrize("nt", [16, 96])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_equal_the_whole_plane_bitwise(self, n, nt):
        rng = np.random.default_rng(n + nt)
        st = airy_spacetime(random_band_field(GridSpec(n, 40.0), rng, max_mode=n // 10),
                            -2.0, 2.0, nt)
        for s in (0.0, 0.5, -0.75):
            values, want = whole_plane_xbar(st, s)
            got = xbar_norm(st, s)
            assert spacetime_transform(st).values.tobytes() == values.tobytes()
            assert report_bits(got) == report_bits(want)

    def test_a_nyquist_only_field_has_zero_x_blocks(self, st_grid):
        half = np.zeros(st_grid.num_points // 2 + 1, dtype=complex)
        half[-1] = 3.0
        rep = xbar_norm(airy_spacetime(SpectralField(st_grid, half), -2.0, 2.0, 96), 0.5)
        assert list(rep.x_norm_per_n) == [1, 2, 4, 8, 16]
        assert all(v == 0.0 for v in rep.x_norm_per_n.values())
        assert rep.nyquist_share == 1.0

    @pytest.mark.parametrize("n, nt", [(64, 16), (256, 96)])
    def test_the_nyquist_coefficient_moves_no_block(self, n, nt):
        g = GridSpec(n, 40.0)
        rng = np.random.default_rng(n + nt)
        f = SpectralField(g, rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1))
        zeroed = SpectralField(g, f.half)
        zeroed.half[-1] = 0.0
        with_nyquist, without = (xbar_norm(airy_spacetime(h, -2.0, 2.0, nt), 0.5)
                                 for h in (f, zeroed))
        assert report_bits(replace(with_nyquist, nyquist_share=0.0)) == report_bits(without)
        assert with_nyquist.nyquist_share > 0.0
        assert without.nyquist_share == 0.0

    def test_peak_memory_within_three_planes(self, st_grid):
        # the complex plane, its float power plane, then the low block's rows beside the plane
        # (2.06 planes measured); each further whole-plane float temporary (a lam plane, a band
        # split, a share, a copy of the power's columns) would add half a plane
        st = airy_spacetime(random_band_field(st_grid, np.random.default_rng(5), max_mode=24),
                            -2.0, 2.0, 96)
        plane_bytes = spacetime_transform(st).values.nbytes
        xbar_norm(st, 0.5)
        tracemalloc.start()
        try:
            xbar_norm(st, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * plane_bytes


def separable_x_norms(f, nt):
    """{N: ||P_N u||_X} for N >= 2 of u = eta(t) S(t) f on nt samples of [-2, 2], with no FFT.
    Free evolution makes the demodulated transform separable, spec(lam, xi) = f_hat(xi) E(lam),
    with E(lam) = dt sum_j eta(t_j) exp(-i lam t_j) summed directly over the taper samples, on
    the padded lam grid.  The real Nyquist column is left out, as ``xbar_norm`` leaves it out;
    the bumps are the two cutoffs."""
    g = f.grid
    t = np.linspace(-2.0, 2.0, nt)
    dt = 4.0 / (nt - 1)
    taper = temporal_taper(t, -2.0, 2.0)
    lam = 2.0 * np.pi * np.fft.fftfreq(PAD * nt, d=dt)
    e = dt * sum(eta * np.exp(-1j * lam * tj) for tj, eta in zip(t, taper))
    cell = (lam[1] - lam[0]) * g.dxi / (2.0 * np.pi) ** 2
    power = (np.abs(e[:, None] * f.half) ** 2 * column_weights(g) * cell)[:, :-1]
    l_list = covering_indices(np.max(np.abs(lam)))
    return {n: sum(np.sqrt(l) * np.sqrt(np.sum(two_cutoff_bump(l, lam)[:, None] ** 2
                                                * two_cutoff_bump(n, g.xi[:-1]) ** 2 * power))
                   for l in l_list)
            for n in covering_indices(g.xi[-1])[1:]}


@pytest.mark.parametrize("nt", [16, 96])
@pytest.mark.parametrize("n", [64, 256])
def test_block_norms_equal_the_separable_oracle(n, nt):
    # a random half-spectrum puts mass in every block; the bound is 1.8e-15 on every block
    # (8 seeds: 1.4e-15 at most), the rounding of the transform and the band sums: the
    # demodulated phases cancel, so it no longer grows with N
    rng = np.random.default_rng(n + nt)
    f = SpectralField(GridSpec(n, 40.0), rng.standard_normal(n // 2 + 1)
                      + 1j * rng.standard_normal(n // 2 + 1))
    want = separable_x_norms(f, nt)
    st = airy_spacetime(f, -2.0, 2.0, nt)
    for s in (0.0, 0.5, -0.75):
        got = xbar_norm(st, s).x_norm_per_n
        assert got.keys() - {1} == want.keys()
        for k, v in want.items():
            assert abs(got[k] - v) <= 1.8e-15 * v


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
        r2 = free_evolution_norm_ratio(SpectralField(st_grid, 2.0 * f.half), s=0.0)
        assert r2 == pytest.approx(r1, rel=1e-12)
