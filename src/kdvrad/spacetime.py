"""Space-time sampling of fields and the tapered 2D Fourier transform.

A SpacetimeField is a stack of the grid's k = 0..n/2 half-spectra, one row per sample time
t_j of a uniform window; before any modulation analysis the rows are multiplied by a smooth
temporal taper equal to 1 on the inner half of the window and vanishing at its ends, then
zero-padded in time (by the factor ``PAD``) so that the transform samples the same compactly
supported signal on a finer tau grid.  The field is real, so the xi >= 0 half plane holds the
whole transform, and x is transformed already: ``spacetime_transform`` is one complex FFT
along tau, and its inverse stores half rows again.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .bumps import chi
from .errors import KdvradError
from .grid import GridSpec, SpectralField, airy_phase, require_one_field

#: zero-padding factor of the time axis before the tau transform
PAD = 4


def temporal_taper(t, t_a: float, t_b: float) -> np.ndarray:
    """Smooth window: 1 on the inner half of [t_a, t_b], 0 at the ends."""
    s = 4.0 * (np.asarray(t, dtype=float) - t_a) / (t_b - t_a) - 2.0
    return chi(s)


@dataclass
class SpacetimeField:
    """Real field on [t_a, t_b] x grid: ``field`` is a stack of half-spectra, one row per
    sample time; ``pretapered`` rows carry the temporal taper already."""

    field: SpectralField = dc_field(repr=False)
    t_a: float
    t_b: float
    pretapered: bool = False

    def __post_init__(self):
        if self.field.half.ndim != 2:
            raise ValueError("field must be a stack: (num_time_samples, n/2 + 1)")
        if self.num_time_samples < 2 or self.t_b <= self.t_a:
            raise ValueError("need at least two samples on a positive time window")

    @property
    def grid(self) -> GridSpec:
        return self.field.grid

    @property
    def num_time_samples(self) -> int:
        return self.field.half.shape[0]

    @property
    def dt(self) -> float:
        return (self.t_b - self.t_a) / (self.num_time_samples - 1)

    @property
    def times(self) -> np.ndarray:
        return self.t_a + self.dt * np.arange(self.num_time_samples)

    def tapered(self) -> np.ndarray:
        """The half-spectrum rows times the temporal taper."""
        if self.pretapered:
            return self.field.half
        return self.field.half * temporal_taper(self.times, self.t_a, self.t_b)[:, None]

    def l2_norm(self) -> float:
        """Space-time L2 norm of the tapered field (dt weights, Parseval in x)."""
        return float(np.sqrt(np.sum(self.grid.inner(self.tapered())) * self.dt))


@dataclass
class SpacetimeSpectrum:
    """2D transform values indexed (tau_j, xi_k): tau in FFT order, xi the grid's k = 0..n/2."""

    values: np.ndarray = dc_field(repr=False)
    tau: np.ndarray = dc_field(repr=False)
    xi: np.ndarray = dc_field(repr=False)
    dtau: float
    dxi: float
    field: "SpacetimeField" = dc_field(repr=False)

    @property
    def weight(self) -> float:
        """Cell weight in Parseval sums: dtau*dxi/(2 pi)^2."""
        return self.dtau * self.dxi / (2.0 * np.pi) ** 2

    def modulation(self, cols=slice(None)) -> np.ndarray:
        """lambda = tau - xi^3 on the (tau, xi) grid, or on its xi columns ``cols``."""
        return self.tau[:, None] - self.xi[None, cols] ** 3

    def power(self, cols=slice(None)) -> np.ndarray:
        """|values|^2 times each column's multiplicity (a xi > 0 column stands for +-xi), on
        every column or on the columns ``cols``."""
        return np.abs(self.values[:, cols]) ** 2 * self.field.grid.half_weight[cols]

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(self.power()) * self.weight))


def spacetime_transform(field: SpacetimeField) -> SpacetimeSpectrum:
    """Continuous-normalized 2D transform of the tapered, zero-padded field.

    The tau spacing is 2 pi / (PAD * (t_b - t_a) * nt/(nt-1)); padding only
    refines the sampling of the transform of the compactly supported signal.  The tau phase
    and the dt scale are multiplied into the FFT output in place, so the spectrum is the one
    complex (tau x xi) plane the transform allocates.
    """
    if field.num_time_samples < 8:
        raise KdvradError("need at least 8 time samples for modulation analysis")
    nt_pad = PAD * field.num_time_samples
    dt = field.dt
    tau = 2.0 * np.pi * np.fft.fftfreq(nt_pad, d=dt)
    # fft with n = nt_pad zero-pads the time axis
    values = np.fft.fft(field.tapered(), n=nt_pad, axis=0)
    np.multiply(dt * np.exp(-1j * tau * field.t_a)[:, None], values, out=values)
    return SpacetimeSpectrum(values=values, tau=tau, xi=field.grid.xi,
                             dtau=float(tau[1] - tau[0]), dxi=field.grid.dxi, field=field)


def inverse_spacetime_transform(spec: SpacetimeSpectrum) -> SpacetimeField:
    """Invert the 2D transform and crop back to the original window."""
    f = spec.field
    phase_t = np.exp(1j * spec.tau * f.t_a)[:, None]
    half = np.fft.ifft(spec.values * phase_t, axis=0)[:f.num_time_samples] / f.dt
    return SpacetimeField(SpectralField(f.grid, half, copy=False), f.t_a, f.t_b, pretapered=True)


def airy_spacetime(f: SpectralField, t_a: float, t_b: float,
                   num_time_samples: int = 160) -> SpacetimeField:
    """The free (Airy) evolution of f at the times of a uniform window, one row each."""
    require_one_field(f, "airy_spacetime")
    times = np.linspace(t_a, t_b, num_time_samples)
    rows = f.half * airy_phase(f.grid.xi, times[:, None])
    return SpacetimeField(SpectralField(f.grid, rows, copy=False), t_a, t_b)
