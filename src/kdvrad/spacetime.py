"""The tapered space-time Fourier transform of a ``solver.Trajectory``, in the modulation frame:
forward only.

The trajectory's rows are the grid's k = 0..n/2 half-spectra at the uniform sample times of
[t_a, t_b] = [times[0], times[-1]].  They are multiplied by a smooth temporal taper, 1 on the
inner half of the window and 0 at its ends, then by exp(-i t xi^3), which undoes the free (Airy)
flow, and zero-padded in time by ``PAD``.  The FFT frequency along t of these demodulated rows is
the modulation lam = tau - xi^3 itself, since ||u||_{X^{s,b}} = ||exp(t d_x^3) u||_{H^b_t H^s_x}
(Bourgain, GAFA 1993; Tao, CBMS 106, 2.6): a free wave sits at lam = 0 whatever nt, and every xi
column shares one lam grid.  The field is real and x transformed already, so
``spacetime_transform`` is one complex FFT along t on the xi >= 0 half plane.  The real Nyquist
column Re(c exp(i xi^3 t)) demodulates to c/2 at lam = 0 and conj(c)/2 at lam = -2 xi^3, which
aliases; ``dyadic.xbar_norm`` leaves it out of the X blocks.

``airy_spacetime`` and the demodulation read the sample times and the Airy phases exp(i t xi^3) of
a window from a cache keyed by (grid, t_a, t_b, nt) that holds the last window only: read-only
arrays of 16 bytes per (time, xi) cell, 194 KiB at N = 256 and nt = 96.  Only the field's rows
are built per call.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .bumps import chi
from .errors import TimeWindowTooShortError
from .grid import GridSpec, SpectralField, airy_phase, require_one_field
from .solver import Trajectory

#: zero-padding factor of the time axis before the lam transform
PAD = 4


def temporal_taper(t, t_a: float, t_b: float) -> np.ndarray:
    """Smooth window: 1 on the inner half of [t_a, t_b], 0 at the ends."""
    s = 4.0 * (np.asarray(t, dtype=float) - t_a) / (t_b - t_a) - 2.0
    return chi(s)


def _check_window(t_a: float, t_b: float, nt: int):
    if nt < 2 or not (np.isfinite(t_a) and np.isfinite(t_b) and t_b > t_a):
        raise ValueError("need at least two samples on a finite positive time window, got "
                         f"t_a = {t_a}, t_b = {t_b}, nt = {nt}")


@dataclass
class SpacetimeSpectrum:
    """2D transform values indexed (lam_j, xi_k): lam in FFT order, xi the grid's k = 0..n/2;
    ``tapered`` holds the half-spectrum rows times the temporal taper that were transformed."""

    values: np.ndarray = dc_field(repr=False)
    lam: np.ndarray = dc_field(repr=False)
    xi: np.ndarray = dc_field(repr=False)
    dlam: float
    dxi: float
    field: Trajectory = dc_field(repr=False)
    tapered: np.ndarray = dc_field(repr=False)

    @property
    def weight(self) -> float:
        """Cell weight in Parseval sums: dlam*dxi/(2 pi)^2."""
        return self.dlam * self.dxi / (2.0 * np.pi) ** 2

    def power(self) -> np.ndarray:
        """|values|^2 times each column's multiplicity (a xi > 0 column stands for +-xi), built
        in one float plane."""
        power = np.abs(self.values)
        power *= power
        power *= self.field.grid.half_weight
        return power


def spacetime_transform(field: Trajectory) -> SpacetimeSpectrum:
    """Continuous-normalized 2D transform of the tapered, demodulated, zero-padded field, on lam
    spacing 2 pi / (PAD nt dt).  The trajectory must sample [t_a, t_b] = [times[0], times[-1]]
    every dt = (t_b - t_a)/(nt - 1) to 1e-6 dt, with nt >= 8; the taper and the Airy phase are
    read at t_a + j dt.  The lam phase and the dt scale are multiplied into the FFT output in
    place, so the spectrum is the one complex (lam x xi) plane the transform allocates."""
    times, nt = field.times, len(field)
    if field.field.half.shape[:-1] != (nt,):
        raise ValueError("field must be a stack: (num_time_samples, n/2 + 1)")
    t_a, t_b = (float(times[0]), float(times[-1])) if nt else (np.nan, np.nan)
    _check_window(t_a, t_b, nt)
    dt = (t_b - t_a) / (nt - 1)
    if (deviation := float(np.max(np.abs(np.diff(times) - dt)))) > 1e-6 * dt:
        raise ValueError(f"sample times are not uniform: a spacing departs by {deviation:.3g} "
                         f"from dt = {dt:.6g}")
    if nt < 8:
        raise TimeWindowTooShortError(
            f"need at least 8 time samples for modulation analysis, got nt = {nt}")
    tapered = field.field.half * temporal_taper(t_a + dt * np.arange(nt), t_a, t_b)[:, None]
    lam = 2.0 * np.pi * np.fft.fftfreq(PAD * nt, d=dt)
    # fft with n = PAD nt zero-pads the time axis
    values = np.fft.fft(tapered * _airy_window(field.grid, t_a, t_b, nt)[1].conj(),
                        n=PAD * nt, axis=0)
    np.multiply(dt * np.exp(-1j * lam * t_a)[:, None], values, out=values)
    return SpacetimeSpectrum(values=values, lam=lam, xi=field.grid.xi, dlam=float(lam[1] - lam[0]),
                             dxi=field.grid.dxi, field=field, tapered=tapered)


@lru_cache(maxsize=1)
def _airy_window(grid: GridSpec, t_a: float, t_b: float, nt: int):
    """(times, phase): the nt uniform times of [t_a, t_b] and exp(i t xi^3) at each, read-only."""
    times = np.linspace(t_a, t_b, nt)
    phase = airy_phase(grid.xi, times[:, None])
    times.setflags(write=False)
    phase.setflags(write=False)
    return times, phase


def airy_spacetime(f: SpectralField, t_a: float, t_b: float,
                   num_time_samples: int = 160) -> Trajectory:
    """The free (Airy) evolution of f at the times of a uniform window, one row each; the
    times are the cached window's read-only array."""
    require_one_field(f, "airy_spacetime")
    t_a, t_b = float(t_a), float(t_b)
    _check_window(t_a, t_b, num_time_samples)
    times, phase = _airy_window(f.grid, t_a, t_b, num_time_samples)
    return Trajectory(times, SpectralField(f.grid, f.half * phase, copy=False))
