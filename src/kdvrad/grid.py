"""Periodic spatial grid, Fourier transforms and multiplier calculus.

The domain [-half_length, half_length) discretizes the real line; the
coefficients carry the continuous-transform normalization

    coeff(xi_k) ~ integral exp(-i x xi_k) u(x) dx,

so closed-form transforms (sech, sech^2, Gaussians) are directly comparable.
Frequencies are xi_k = pi k / half_length in FFT (wrap-around) order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainTooSmallError, KdvradError

#: relative smallness required of |u| at the domain edge
BOUNDARY_TOLERANCE = 1e-10


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-half_length, half_length)."""

    num_points: int
    half_length: float = 40.0

    def __post_init__(self):
        if not _is_power_of_two(self.num_points):
            raise ValueError(f"num_points must be a power of two, got {self.num_points}")
        if self.half_length <= 0:
            raise ValueError("half_length must be positive")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.num_points

    @property
    def x(self) -> np.ndarray:
        return -self.half_length + self.dx * np.arange(self.num_points)

    @property
    def k_index(self) -> np.ndarray:
        """Signed integer mode numbers in FFT order."""
        return (np.fft.fftfreq(self.num_points) * self.num_points).astype(np.int64)

    @property
    def xi(self) -> np.ndarray:
        """Frequencies pi*k/half_length in FFT order."""
        return np.pi * self.k_index / self.half_length

    @property
    def nyquist_xi(self) -> float:
        return np.pi * (self.num_points // 2) / self.half_length

    @property
    def dxi(self) -> float:
        return np.pi / self.half_length

    @property
    def spectral_weight(self) -> float:
        """Weight per coefficient in Parseval sums: dxi / (2 pi)."""
        return 1.0 / (2.0 * self.half_length)

    def _phase(self) -> np.ndarray:
        # exp(i pi k): offset of the first grid node from x = 0
        return np.where(self.k_index % 2 == 0, 1.0, -1.0)


@dataclass
class SpectralField:
    """One time slice of a real field stored as complex Fourier coefficients."""

    grid: GridSpec
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (self.grid.num_points,):
            raise ValueError("coefficient array does not match grid size")

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def values(self) -> np.ndarray:
        """Physical-space samples (real part; imaginary residue is checked in tests)."""
        g = self.grid
        return np.real(np.fft.ifft(self.coeffs * g._phase()) / g.dx)

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2) * self.grid.spectral_weight))

    def hermitian_defect(self) -> float:
        """Relative departure from coeff(-k) = conj(coeff(k))."""
        c = self.coeffs
        flipped = np.conj(np.roll(c[::-1], 1))
        scale = np.max(np.abs(c)) or 1.0
        return float(np.max(np.abs(c - flipped)) / scale)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        if other.grid != self.grid:
            raise ValueError("grids differ")
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        if other.grid != self.grid:
            raise ValueError("grids differ")
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def forward_transform(values, grid: GridSpec) -> SpectralField:
    """Continuous-normalized Fourier coefficients of real samples on the grid."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.num_points,):
        raise ValueError(f"expected {grid.num_points} samples, got {values.shape}")
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise KdvradError(f"non-finite input value at sample index {bad}")
    coeffs = grid.dx * grid._phase() * np.fft.fft(values)
    return SpectralField(grid, coeffs)


def apply_multiplier(field: SpectralField, m) -> SpectralField:
    """Apply a Fourier multiplier m(xi) to the field.

    ``m`` may be a callable of the frequency array or a precomputed array.
    Non-finite multiplier values are rejected, naming the frequency.
    """
    xi = field.grid.xi
    mv = m(xi) if callable(m) else np.asarray(m)
    mv = np.broadcast_to(np.asarray(mv, dtype=np.complex128), xi.shape)
    finite = np.isfinite(mv)
    if not np.all(finite):
        bad = xi[~finite][0]
        raise KdvradError(f"multiplier is non-finite at frequency xi = {bad}")
    return SpectralField(field.grid, field.coeffs * mv)


def derivative(field: SpectralField, order: int = 1) -> SpectralField:
    return apply_multiplier(field, lambda xi: (1j * xi) ** order)


def dealias_mask(grid: GridSpec, fraction: float = 2.0 / 3.0) -> np.ndarray:
    """Keep-mask for modes |k| <= fraction * Nyquist (Nyquist itself dropped)."""
    k = np.abs(grid.k_index)
    cut = int(np.floor(fraction * (grid.num_points // 2)))
    mask = k <= cut
    mask[k == grid.num_points // 2] = False
    return mask


def dealiased_product(f: SpectralField, g: SpectralField,
                      fraction: float = 2.0 / 3.0) -> SpectralField:
    """Pointwise product f*g with the classical 2/3-rule truncation.

    Both factors are truncated to |k| <= fraction*Nyquist before the physical
    multiplication and the result is truncated again, which removes every
    aliased mode of the quadratic product from the retained band.
    """
    if f.grid != g.grid:
        raise ValueError("grids differ")
    mask = dealias_mask(f.grid, fraction)
    u = SpectralField(f.grid, f.coeffs * mask).values()
    v = u if g is f else SpectralField(g.grid, g.coeffs * mask).values()
    prod = forward_transform(u * v, f.grid)
    prod.coeffs *= mask
    return prod


def boundary_magnitude(field: SpectralField) -> float:
    """max |u| over the cells adjacent to the periodic seam x = +-half_length."""
    v = field.values()
    return float(np.max(np.abs(v[[0, 1, -1]])))


def check_boundary_smallness(field: SpectralField, time: float | None = None,
                             tol: float = BOUNDARY_TOLERANCE) -> None:
    peak = float(np.max(np.abs(field.values())))
    edge = boundary_magnitude(field)
    if edge > tol * peak:
        when = "" if time is None else f" at t = {time:.6g}"
        raise DomainTooSmallError(
            f"domain too small: |u| = {edge:.3e} at the domain edge{when} "
            f"exceeds {tol:.0e} of max |u| = {peak:.3e}",
            time=time,
        )
