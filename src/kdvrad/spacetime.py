"""The tapered space-time Fourier transform of a ``solver.Trajectory``: forward only.

The trajectory's rows are the grid's k = 0..n/2 half-spectra at the uniform sample times of
[t_a, t_b] = [times[0], times[-1]].  They are multiplied by a smooth temporal taper, 1 on the
inner half of the window and 0 at its ends, and zero-padded in time by ``PAD``, which refines
the tau sampling of the same compactly supported signal.  The field is real and x transformed
already, so ``spacetime_transform`` is one complex FFT along tau on the xi >= 0 half plane.

``airy_spacetime`` reads its sample times and the Airy phases exp(i t xi^3) of a window from a
cache keyed by (grid, t_a, t_b, nt) that holds the last window only: read-only arrays of 16
bytes per (time, xi) cell, 194 KiB at N = 256 and nt = 96.  Only the field's rows are built
per call.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .bumps import chi
from .errors import KdvradError
from .grid import GridSpec, SpectralField, airy_phase, require_one_field
from .solver import Trajectory

#: zero-padding factor of the time axis before the tau transform
PAD = 4


def temporal_taper(t, t_a: float, t_b: float) -> np.ndarray:
    """Smooth window: 1 on the inner half of [t_a, t_b], 0 at the ends."""
    s = 4.0 * (np.asarray(t, dtype=float) - t_a) / (t_b - t_a) - 2.0
    return chi(s)


def _check_window(t_a: float, t_b: float, nt: int):
    if nt < 2 or not (np.isfinite(t_a) and np.isfinite(t_b) and t_b > t_a):
        raise ValueError("need at least two samples on a finite positive time window, got "
                         f"t_a = {t_a}, t_b = {t_b}, nt = {nt}")


def _window(field: Trajectory):
    """(t_a, dt, taper) of a trajectory on [t_a, t_b] = [times[0], times[-1]], sampled every
    dt = (t_b - t_a)/(nt - 1) to 1e-6 dt; the taper is read at t_a + j dt."""
    times, nt = field.times, len(field)
    if field.field.half.shape[:-1] != (nt,):
        raise ValueError("field must be a stack: (num_time_samples, n/2 + 1)")
    t_a, t_b = (float(times[0]), float(times[-1])) if nt else (np.nan, np.nan)
    _check_window(t_a, t_b, nt)
    dt = (t_b - t_a) / (nt - 1)
    if (deviation := float(np.max(np.abs(np.diff(times) - dt)))) > 1e-6 * dt:
        raise ValueError(f"sample times are not uniform: a spacing departs by {deviation:.3g} "
                         f"from dt = {dt:.6g}")
    return t_a, dt, temporal_taper(t_a + dt * np.arange(nt), t_a, t_b)


def tapered(field: Trajectory) -> np.ndarray:
    """The half-spectrum rows times the temporal taper."""
    return field.field.half * _window(field)[2][:, None]


@dataclass
class SpacetimeSpectrum:
    """2D transform values indexed (tau_j, xi_k): tau in FFT order, xi the grid's k = 0..n/2."""

    values: np.ndarray = dc_field(repr=False)
    tau: np.ndarray = dc_field(repr=False)
    xi: np.ndarray = dc_field(repr=False)
    dtau: float
    dxi: float
    field: Trajectory = dc_field(repr=False)

    @property
    def weight(self) -> float:
        """Cell weight in Parseval sums: dtau*dxi/(2 pi)^2."""
        return self.dtau * self.dxi / (2.0 * np.pi) ** 2

    def modulation(self) -> np.ndarray:
        """lambda = tau - xi^3 on the (tau, xi) grid."""
        return self.tau[:, None] - self.xi[None, :] ** 3

    def power(self, cols=slice(None)) -> np.ndarray:
        """|values|^2 times each column's multiplicity (a xi > 0 column stands for +-xi), on
        every column or on the columns ``cols``."""
        return np.abs(self.values[:, cols]) ** 2 * self.field.grid.half_weight[cols]


def spacetime_transform(field: Trajectory) -> SpacetimeSpectrum:
    """Continuous-normalized 2D transform of the tapered, zero-padded field, on tau spacing
    2 pi / (PAD nt dt).  The tau phase and the dt scale are multiplied into the FFT output in
    place, so the spectrum is the one complex (tau x xi) plane the transform allocates."""
    t_a, dt, taper = _window(field)
    if len(field) < 8:
        raise KdvradError("need at least 8 time samples for modulation analysis")
    nt_pad = PAD * len(field)
    tau = 2.0 * np.pi * np.fft.fftfreq(nt_pad, d=dt)
    # fft with n = nt_pad zero-pads the time axis
    values = np.fft.fft(field.field.half * taper[:, None], n=nt_pad, axis=0)
    np.multiply(dt * np.exp(-1j * tau * t_a)[:, None], values, out=values)
    return SpacetimeSpectrum(values=values, tau=tau, xi=field.grid.xi,
                             dtau=float(tau[1] - tau[0]), dxi=field.grid.dxi, field=field)


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
