"""Periodic spatial grid and its Fourier transforms.

This module is the only place that defines the spectral convention; the
solver, the space-time transforms and every diagnostic use it through
``GridSpec`` and the functions below.  The domain [-half_length,
half_length) discretizes the real line; the coefficients carry the
continuous-transform normalization

    coeff(xi_k) ~ integral exp(-i x xi_k) u(x) dx = dx (-1)^k FFT(u)_k,

so closed-form transforms (sech, sech^2, Gaussians) are directly comparable.
Every field is real, so its k = 0..n/2 half-spectrum holds all of it, and that is the one
layout: ``GridSpec``'s mode numbers, frequencies xi_k = pi k / half_length >= 0 (Nyquist
positive, as ``np.fft.rfftfreq``) and Parseval weights ``half_weight`` have n/2 + 1 entries;
``SpectralField`` stores a half-spectrum, and ``to_half`` / ``half_to_values`` are real FFTs
along the last axis.  The quadratic nonlinearity is dealiased by the 2/3 rule (the band
k < ``GridSpec.band``), the free (Airy) flow multiplies by ``airy_phase`` and the one Parseval
sum is ``GridSpec.inner``.  A field may be a stack of snapshots, (..., n/2 + 1): its methods
and the multipliers act row by row, bitwise as on each row alone.
Every real FFT is ``rfft`` / ``irfft`` below, bitwise ``np.fft``'s pocketfft kernels without its
per-call wrapper; they are looked up per call, so that importing kdvrad does not import numpy.fft.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DomainTooSmallError, KdvradError

#: relative smallness required of |u| at the domain edge
BOUNDARY_TOLERANCE = 1e-10


def rfft(values, out=None) -> np.ndarray:
    """np.fft.rfft of even-length real samples along the last axis."""
    if out is None:
        out = np.empty(np.shape(values)[:-1] + (np.shape(values)[-1] // 2 + 1,), complex)
    return np.fft._pocketfft_umath.rfft_n_even(values, 1.0, out=out)


def irfft(half, n: int, out=None) -> np.ndarray:
    """np.fft.irfft(half, n) along the last axis; a shorter ``half`` is zero-padded."""
    if out is None:
        out = np.empty(np.shape(half)[:-1] + (n,))
    return np.fft._pocketfft_umath.irfft(half, 1.0 / n, out=out)


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-half_length, half_length).

    The k = 0..n/2 mode numbers, their frequencies, the (-1)^k phase and ``half_weight`` are
    computed once, as read-only arrays, and so is ``band``: the 2/3 band is k < band.
    """

    num_points: int
    half_length: float = 40.0

    def __post_init__(self):
        n = self.num_points
        if n < 2 or n & (n - 1):  # n = 1 is 2^0, but pocketfft refuses every real FFT of it
            raise ValueError(f"num_points must be a power of two >= 2, got {self.num_points}")
        if not 0 < self.half_length < np.inf:
            raise ValueError(f"half_length must be positive and finite, got {self.half_length}")
        k = np.arange(self.num_points // 2 + 1, dtype=np.int64)
        weight = np.full(k.size, 2.0)
        weight[[0, -1]] = 1.0
        # _sign = exp(i pi k): offset of the first grid node from x = 0; half_weight:
        # multiplicity of each k = 0..n/2 entry in Parseval sums, 2 where it stands for +-k
        for name, a in (("_k", k), ("_xi", np.pi * k / self.half_length),
                        ("_sign", np.where(k % 2 == 0, 1.0, -1.0)), ("half_weight", weight)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "band", self.band_size(2.0 / 3.0))

    def __reduce__(self):
        # pickle and deepcopy rebuild the read-only arrays, not restore writable copies
        return GridSpec, (self.num_points, self.half_length)

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.num_points

    @property
    def x(self) -> np.ndarray:
        return -self.half_length + self.dx * np.arange(self.num_points)

    @property
    def k_index(self) -> np.ndarray:
        """Mode numbers k = 0..n/2."""
        return self._k

    @property
    def xi(self) -> np.ndarray:
        """Frequencies pi*k/half_length, k = 0..n/2."""
        return self._xi

    @property
    def dxi(self) -> float:
        return np.pi / self.half_length

    @property
    def spectral_weight(self) -> float:
        """Weight per coefficient in Parseval sums: dxi / (2 pi)."""
        return 1.0 / (2.0 * self.half_length)

    def band_size(self, fraction: float) -> int:
        """m such that k < m keeps |k| <= fraction * Nyquist, the Nyquist mode dropped."""
        nyquist = self.num_points // 2
        return min(max(int(np.floor(fraction * nyquist)) + 1, 0), nyquist)

    def inner(self, a, b=None):
        """int u v dx of real fields from their half-spectra a, b (last axis); ||u||^2 by |a|^2."""
        density = np.abs(a) ** 2 if b is None else np.real(np.conj(a) * b)
        return np.sum(self.half_weight * density, axis=-1) * self.spectral_weight

    def to_half(self, values) -> np.ndarray:
        """k = 0..n/2 coefficients dx (-1)^k rfft of real samples along the last axis."""
        return self.dx * self._sign * rfft(values)

    def half_to_values(self, half, num_points: int | None = None) -> np.ndarray:
        """Real samples of a k = 0..n/2 half-spectrum (inverse of ``to_half``); a larger
        ``num_points`` zero-pads to that finer grid, the Nyquist term split over +-n/2.  A
        smaller one, which would drop every mode past its Nyquist, is refused."""
        m = num_points or self.num_points
        if m < self.num_points:
            raise ValueError(f"cannot sample a {self.num_points}-point grid's half-spectrum "
                             f"at {m} points: the modes past {m // 2} would be dropped")
        half = half * self._sign
        if m > self.num_points:
            half[..., -1] *= 0.5
        return irfft(half, m) / (2.0 * self.half_length / m)

    def from_half(self, half) -> np.ndarray:
        """FFT-order coefficients of a real field from its k = 0..n/2 half (last axis); the
        k = 0 and Nyquist entries are read by their real parts, as ``irfft`` reads them."""
        return np.concatenate((half[..., :1].real, half[..., 1:-1], half[..., -1:].real,
                               np.conj(half[..., -2:0:-1])), axis=-1)


def airy_phase(xi, t) -> np.ndarray:
    """Free (Airy) propagator exp(i t xi^3), with t xi^3 reduced mod 2 pi first.

    ``t`` may be an array broadcasting against ``xi`` (one row per time).
    """
    return np.exp(1j * np.mod(xi ** 3 * t, 2.0 * np.pi))


@dataclass
class SpectralField:
    """A real field, or a stack of them: a copy of the k = 0..n/2 half-spectra, the real k = 0
    and Nyquist entries stored by their real parts; ``coeffs`` derives the full array.
    ``copy=False`` adopts a complex128 array as it is, storing its ends in place unless it is
    read-only: a read-only array is a view of rows stored already."""

    grid: GridSpec
    half: np.ndarray = field(repr=False)
    copy: InitVar[bool] = True

    def __post_init__(self, copy):
        if copy:
            self.half = np.array(self.half, dtype=np.complex128, order="C")  # rows sum as alone
        if self.half.ndim == 0 or self.half.shape[-1] != self.grid.num_points // 2 + 1:
            raise ValueError(f"half-spectrum of shape {self.half.shape} does not match the grid")
        if self.half.flags.writeable:
            self.half[..., [0, -1]] = self.half[..., [0, -1]].real

    def __getitem__(self, rows) -> "SpectralField":
        """Rows of a stack as a read-only view of its memory, no copy."""
        if self.half.ndim < 2:
            raise IndexError("a single field has no rows")
        half = self.half[rows]
        half.setflags(write=False)
        return SpectralField(self.grid, half, copy=False)

    @property
    def coeffs(self) -> np.ndarray:
        """All n coefficients in FFT order, completed by Hermitian symmetry (read-only)."""
        c = self.grid.from_half(self.half)
        c.setflags(write=False)
        return c

    def values(self) -> np.ndarray:
        """Physical-space samples."""
        return self.grid.half_to_values(self.half)

    def l2_norm(self):
        return np.sqrt(self.grid.inner(self.half))

    def __mul__(self, scalar) -> "SpectralField":
        # perfbench's self-test scales commutator_term's output through it
        return SpectralField(self.grid, self.half * scalar)


def forward_transform(values, grid: GridSpec) -> SpectralField:
    """Continuous-normalized Fourier coefficients of real samples on the grid."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.num_points,):
        raise ValueError(f"expected {grid.num_points} samples, got {values.shape}")
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise KdvradError(f"non-finite input value at sample index {bad}")
    return SpectralField(grid, grid.to_half(values))


def require_one_field(field: SpectralField, what: str) -> None:
    """Refuse a stack where ``what`` reduces over the whole array to one number."""
    if field.half.ndim != 1:
        raise ValueError(f"{what} takes one field, not a stack of shape {field.half.shape}")


def check_boundary_smallness(field: SpectralField, time: float | None = None) -> None:
    """Raise DomainTooSmallError when max |u| over the cells adjacent to the
    periodic seam x = +-half_length exceeds BOUNDARY_TOLERANCE * max |u|."""
    require_one_field(field, "check_boundary_smallness")
    v = np.abs(field.values())
    peak = float(np.max(v))
    edge = float(np.max(v[[0, 1, -1]]))
    if edge > BOUNDARY_TOLERANCE * peak:
        when = "" if time is None else f" at t = {time:.6g}"
        # an under-resolved grid leaks to the edge too: blamed where its modes past the 2/3 band
        # pass the tolerance and the edge value, which a datum on the edge outgrows
        coeffs = np.abs(field.half)
        share = float(np.max(coeffs[field.grid.band:]) / np.max(coeffs))
        coarse = ": the grid may be too coarse" * (share > max(BOUNDARY_TOLERANCE, edge / peak))
        raise DomainTooSmallError(
            f"domain too small: |u| = {edge:.3e} at the domain edge{when} "
            f"exceeds {BOUNDARY_TOLERANCE:.0e} of max |u| = {peak:.3e}; the modes past the "
            f"2/3 band hold {share:.2e} of the peak coefficient{coarse}",
            time=time,
        )
