"""Space-time sampling of fields and the tapered 2D Fourier transform.

A SpacetimeField holds real samples u(t_j, x_k) on a uniform window; before
any modulation analysis the samples are multiplied by a smooth temporal
taper equal to 1 on the inner half of the window and vanishing at its ends,
then zero-padded in time (by the factor ``PAD``) so that the transform samples
the same compactly supported signal on a finer tau grid.  The samples are real,
so the xi >= 0 half plane holds the whole transform: x goes to the grid's
half-spectrum (``GridSpec.to_half`` / ``half_to_values``), which owns the spatial
convention, and this module adds only the complex FFT along tau.
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
    """Real field sampled on [t_a, t_b] x grid."""

    grid: GridSpec
    t_a: float
    t_b: float
    values: np.ndarray = dc_field(repr=False)
    pretapered: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != self.grid.num_points:
            raise ValueError("values must be (num_time_samples, num_points)")
        if self.num_time_samples < 2 or self.t_b <= self.t_a:
            raise ValueError("need at least two samples on a positive time window")

    @property
    def num_time_samples(self) -> int:
        return self.values.shape[0]

    @property
    def dt(self) -> float:
        return (self.t_b - self.t_a) / (self.num_time_samples - 1)

    @property
    def times(self) -> np.ndarray:
        return self.t_a + self.dt * np.arange(self.num_time_samples)

    def tapered_values(self) -> np.ndarray:
        if self.pretapered:
            return self.values
        return self.values * temporal_taper(self.times, self.t_a, self.t_b)[:, None]

    def l2_norm(self) -> float:
        """Space-time L2 norm of the tapered samples (dt dx weights)."""
        w = self.tapered_values()
        return float(np.sqrt(np.sum(w * w) * self.dt * self.grid.dx))


@dataclass
class SpacetimeSpectrum:
    """2D transform values indexed (tau_j, xi_k): tau in FFT order, xi = xi[:n/2 + 1]."""

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
    """Continuous-normalized 2D transform of the tapered, zero-padded samples.

    The tau spacing is 2 pi / (PAD * (t_b - t_a) * nt/(nt-1)); padding only
    refines the sampling of the transform of the compactly supported signal.
    """
    return _transform(field)[1]


def _transform(field: SpacetimeField):
    """(the tapered samples' x transform, ``spacetime_transform(field)``) for ``xbar_norm``.

    The tau phase and the dt scale are multiplied into the FFT output in place, so the
    spectrum is the one complex (tau x xi) plane the transform allocates."""
    if field.num_time_samples < 8:
        raise KdvradError("need at least 8 time samples for modulation analysis")
    g = field.grid
    nt_pad = PAD * field.num_time_samples
    dt = field.dt
    tau = 2.0 * np.pi * np.fft.fftfreq(nt_pad, d=dt)
    # fft with n = nt_pad zero-pads the time axis
    half = g.to_half(field.tapered_values())
    values = np.fft.fft(half, n=nt_pad, axis=0)
    np.multiply(dt * np.exp(-1j * tau * field.t_a)[:, None], values, out=values)
    return half, SpacetimeSpectrum(
        values=values,
        tau=tau,
        xi=g.xi[:values.shape[1]],
        dtau=float(tau[1] - tau[0]),
        dxi=g.dxi,
        field=field,
    )


def inverse_spacetime_transform(spec: SpacetimeSpectrum) -> SpacetimeField:
    """Invert the 2D transform and crop back to the original window."""
    f = spec.field
    phase_t = np.exp(1j * spec.tau * f.t_a)[:, None]
    half = np.fft.ifft(spec.values * phase_t, axis=0)[:f.num_time_samples] / f.dt
    return SpacetimeField(f.grid, f.t_a, f.t_b, f.grid.half_to_values(half), pretapered=True)


def airy_spacetime(f: SpectralField, t_a: float, t_b: float,
                   num_time_samples: int = 160) -> SpacetimeField:
    """Sample the free (Airy) evolution of f on a uniform time window."""
    require_one_field(f, "airy_spacetime")
    g = f.grid
    times = np.linspace(t_a, t_b, num_time_samples)
    vals = g.half_to_values(f.half * airy_phase(g.xi[:f.half.size], times[:, None]))
    return SpacetimeField(g, t_a, t_b, vals)
