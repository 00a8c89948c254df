"""Space-time sampling, taper and the 2D transform in the modulation frame."""
import re

import numpy as np
import pytest

from kdvrad import spacetime
from kdvrad.errors import KdvradError, TimeWindowTooShortError
from kdvrad.grid import GridSpec, SpectralField, forward_transform
from kdvrad.solver import Trajectory
from kdvrad.spacetime import airy_spacetime, spacetime_transform, temporal_taper

from conftest import (airy_propagate, inverse_spacetime_transform, sampled_spacetime,
                      spacetime_l2_norm, window, with_taper)


@pytest.fixture(scope="module")
def st_grid():
    return GridSpec(256, 40.0)


def make_field(grid, func, t_a=-2.0, t_b=2.0, nt=128):
    t = np.linspace(t_a, t_b, nt)
    tt, xx = np.meshgrid(t, grid.x, indexing="ij")
    return sampled_spacetime(grid, t_a, t_b, func(tt, xx))


class TestTaper:
    def test_inner_half_is_one(self):
        t = np.linspace(-1.0, 1.0, 101)
        assert np.all(temporal_taper(t, -2.0, 2.0) == 1.0)

    def test_vanishes_at_ends(self):
        assert temporal_taper(np.array([-2.0, 2.0]), -2.0, 2.0).max() == 0.0

    def test_dt_uniform(self, st_grid):
        f = make_field(st_grid, lambda t, x: np.cos(x), nt=64)
        assert np.diff(f.times) == pytest.approx(np.full(63, 4.0 / 63))
        assert len(f.times) == 64


class TestSpacetimeTransform:
    def test_zero_field(self, st_grid):
        f = make_field(st_grid, lambda t, x: 0.0 * t)
        spec = spacetime_transform(f)
        assert np.all(spec.values == 0)

    def test_parseval(self, st_grid):
        rng = np.random.default_rng(3)
        f = make_field(st_grid, lambda t, x:
                       np.cos(0.8 * x + 0.3 * t) * np.exp(-(x / 15.0) ** 2)
                       + 0.1 * np.sin(2.1 * x - t))
        spec = spacetime_transform(f)
        assert spacetime_l2_norm(spec) == pytest.approx(spacetime_l2_norm(with_taper(f)),
                                                        rel=1e-10)

    def test_tau_spacing(self, st_grid):
        # lam = tau - xi^3 column by column, so the lam grid has the tau grid's spacing:
        # padded window length = PAD * nt * dt, PAD = 4
        f = make_field(st_grid, lambda t, x: np.cos(x), nt=128)
        spec = spacetime_transform(f)
        expected = 2 * np.pi / (4 * 128 * window(f)[2])
        assert spec.dlam == pytest.approx(expected, rel=1e-12)
        assert np.array_equal(spec.lam, 2 * np.pi * np.fft.fftfreq(4 * 128, d=window(f)[2]))

    @staticmethod
    def _taper_line(field, tau0=0.0, pad=4):
        """1D transform of taper(t)*exp(i tau0 t): the temporal line shape a
        separable signal component is smeared into (independent 1D oracle)."""
        t_a, t_b, dt, times = window(field)
        w = temporal_taper(times, t_a, t_b) * np.exp(1j * tau0 * times)
        padded = np.zeros(pad * len(times), dtype=complex)
        padded[:len(times)] = w
        tau = 2 * np.pi * np.fft.fftfreq(padded.size, d=dt)
        line = dt * np.exp(-1j * tau * t_a) * np.fft.fft(padded)
        return tau, line

    def test_pure_exponential_concentrates(self, st_grid):
        # the windowed transform of cos(xi0 x + tau0 t) factorizes into
        # spatial lines at +-xi0 times the taper line shape at tau = -+tau0;
        # the exp(i tau0 t) component pairs with the +xi0 spatial mode, which the
        # demodulation moves to lam = tau0 - xi0^3
        g = st_grid
        xi0 = 16 * np.pi / g.half_length
        tau0 = 2.0
        lam0 = tau0 - xi0 ** 3
        f = make_field(g, lambda t, x: np.cos(xi0 * x + tau0 * t))
        spec = spacetime_transform(f)
        power = np.abs(spec.values) ** 2
        j_pos = int(np.flatnonzero(np.isclose(spec.xi, xi0))[0])
        _, line = self._taper_line(f, tau0=lam0)
        oracle_col = g.half_length * line
        scale = np.max(np.abs(oracle_col))
        assert np.max(np.abs(spec.values[:, j_pos] - oracle_col)) < 1e-10 * scale
        # dominant bin sits at (lam0, xi0); side-lobe mass beyond the taper's
        # 99 % bandwidth (~6 for this window) stays below 1 %
        i, j = np.unravel_index(np.argmax(power), power.shape)
        assert abs(abs(spec.xi[j]) - xi0) < 1e-12
        assert abs(spec.lam[i] - lam0) <= spec.dlam
        far = np.abs(spec.lam - lam0) > 6.0
        assert np.sum(power[far, :]) < 0.01 * np.sum(power)

    def test_airy_wave_has_zero_modulation(self, st_grid):
        # free waves live on the characteristic tau = xi^3, lam = 0; the tapered
        # transform spreads each by the taper line shape only
        g = st_grid
        xi0 = 8 * np.pi / g.half_length
        f = make_field(g, lambda t, x: np.cos(xi0 * x + xi0 ** 3 * t))
        spec = spacetime_transform(f)
        power = np.abs(spec.values) ** 2
        lam = np.abs(spec.lam)
        i, j = np.unravel_index(np.argmax(power), power.shape)
        assert lam[i] <= spec.dlam
        # >= 95 % of the mass within the taper's own 95 % bandwidth of the
        # characteristic (measured from the taper: ~2.0 for this window)
        tau, line = self._taper_line(f)
        pl = np.abs(line) ** 2
        b95 = 2.0
        assert np.sum(pl[np.abs(tau) <= b95]) / np.sum(pl) >= 0.95
        assert np.sum(power[lam <= b95]) >= 0.95 * np.sum(power)

    def test_free_wave_sits_at_zero_modulation_at_any_sampling(self, st_grid):
        # xi0^3 = 1000 is far past pi/dt = 11.8 at nt = 16: the tau grid aliases such a wave,
        # the demodulated rows do not, and every column is f_hat(xi) times one taper line
        f0 = forward_transform(np.cos(10.0 * st_grid.x) * np.exp(-(st_grid.x / 8.0) ** 2),
                               st_grid)
        spec = spacetime_transform(airy_spacetime(f0, -2.0, 2.0, 16))
        _, line = self._taper_line(spec.field)
        cols = slice(0, -1)  # the real Nyquist column aliases
        want = line[:, None] * f0.half[cols]
        assert np.max(np.abs(spec.values[:, cols] - want)) < 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("times, rows, match", [
        (np.linspace(0.0, 1.0, 9), None, "must be a stack"),
        (np.linspace(0.0, 1.0, 8), 9, "must be a stack"),
        (np.array([0.0]), 1, "at least two samples"),
        (np.zeros(9), 9, "positive time window"),
        (np.linspace(1.0, 0.0, 9), 9, "positive time window"),
        (np.r_[np.linspace(0.0, 1.0, 9), 1.05], 10, "not uniform"),
        (np.r_[np.linspace(0.0, 1.0, 8), np.inf], 9, "finite positive time window"),
    ])
    def test_rejects_a_bad_window(self, st_grid, times, rows, match):
        half = np.ones(st_grid.num_points // 2 + 1, dtype=complex)
        field = SpectralField(st_grid, half if rows is None else np.tile(half, (rows, 1)))
        with pytest.raises(ValueError, match=match):
            spacetime_transform(Trajectory(times, field))

    def test_rejects_few_samples(self, st_grid):
        f = make_field(st_grid, lambda t, x: np.cos(x), nt=6)
        with pytest.raises(KdvradError, match="8 time samples"):
            spacetime_transform(f)

    @pytest.mark.parametrize("nt", [2, 7])
    def test_few_samples_raise_a_typed_error_naming_nt(self, st_grid, nt):
        f = make_field(st_grid, lambda t, x: np.cos(x), nt=nt)
        with pytest.raises(TimeWindowTooShortError, match=f"8 time samples .* nt = {nt}$"):
            spacetime_transform(f)

    def test_inverse_round_trip(self, st_grid):
        f = make_field(st_grid, lambda t, x:
                       np.cos(0.8 * x - 1.3 * t) * np.exp(-(x / 15.0) ** 2))
        spec = spacetime_transform(f)
        back = inverse_spacetime_transform(spec)
        t_a, t_b, _, times = window(f)
        tapered = f.field.values() * temporal_taper(times, t_a, t_b)[:, None]
        assert np.max(np.abs(back.field.values() - tapered)) < 1e-12


class TestBuilders:
    def test_airy_spacetime_matches_free_flow(self, st_grid):
        g = st_grid
        f0 = forward_transform(np.cos(8 * np.pi * g.x / 40.0)
                               * np.exp(-(g.x / 12.0) ** 2), g)
        st = airy_spacetime(f0, -1.0, 1.0, num_time_samples=33)
        expected = airy_propagate(f0, st.times[5]).values()
        assert np.max(np.abs(st.field.values()[5] - expected)) < 1e-11

    def test_airy_spacetime_rows_equal_free_flow_bitwise(self, st_grid):
        # one Airy phase serves both builders, and both store the real k = 0 and Nyquist parts
        f0 = forward_transform(np.exp(-(st_grid.x / 6.0) ** 2), st_grid)
        st = airy_spacetime(f0, -1.0, 1.0, num_time_samples=9)
        for t, row in zip(np.linspace(-1.0, 1.0, 9), st.field.half):
            assert row.tobytes() == airy_propagate(f0, t).half.tobytes()

    @pytest.mark.parametrize("t_a, t_b, nt", [
        (0.0, np.nan, 16), (np.nan, 1.0, 16), (0.0, np.inf, 16), (-np.inf, 0.0, 16),
        (1.0, 1.0, 16), (1.0, 0.0, 16), (0.0, 1.0, 1), (0.0, 1.0, 0), (0.0, 1.0, -3),
    ])
    def test_airy_spacetime_refuses_a_bad_window_before_caching(self, st_grid, t_a, t_b, nt):
        f0 = forward_transform(np.exp(-(st_grid.x / 6.0) ** 2), st_grid)
        spacetime._airy_window.cache_clear()
        with pytest.raises(ValueError, match=re.escape(f"t_a = {t_a}, t_b = {t_b}, nt = {nt}")):
            airy_spacetime(f0, t_a, t_b, nt)
        assert spacetime._airy_window.cache_info().currsize == 0

    def test_airy_spacetime_refuses_a_stack(self, st_grid):
        f0 = forward_transform(np.exp(-(st_grid.x / 6.0) ** 2), st_grid)
        stack = SpectralField(st_grid, np.stack([f0.half, f0.half]))
        with pytest.raises(ValueError, match="one field"):
            airy_spacetime(stack, -1.0, 1.0, num_time_samples=9)
