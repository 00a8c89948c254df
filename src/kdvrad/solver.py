"""Pseudospectral time integration of u_t + u_xxx + u u_x = 0.

The linear part is handled exactly through the Airy phase exp(i t xi^3); the
quadratic nonlinearity -(1/2) d_x(u^2) is evaluated in physical space with
2/3-rule dealiasing.  The frequencies, the dealias band and the phase come
from ``grid``.  The state is the grid's k = 0..n/2 half-spectrum dx (-1)^k rfft(u)
(``GridSpec.to_half``), which is also what a ``SpectralField`` snapshot stores.  Squaring needs
no (-1)^k multiply: on the half-spectrum (-1)^k shifts u by half the period,
which commutes with squaring, so only the 1/dx is left, in the derivative factor.
Only the 2/3 band k < ``grid.band``, all the nonlinear term reads or writes, runs the RK
stages; the tail just rotates by the scheme's phase, and ``grid.irfft`` zero-pads: no mask
multiply.  ``grid.irfft`` / ``rfft`` skip numpy's FFT wrapper, 3-5 us of each of a step's 8 calls.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as _grid
from .errors import BlowupError, ConfigError
from .grid import (GridSpec, SpectralField, airy_phase, check_boundary_smallness,
                   forward_transform)

SCHEMES = ("ifrk4", "etdrk4")


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 1e-4
    scheme: str = "ifrk4"
    record_every: int = 1000
    check_boundary: bool = True

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.record_every < 1:
            raise ConfigError("record_every must be a positive integer")


@dataclass
class Trajectory:
    """The recorded snapshots as one (records x n/2+1) stack, row i at ``times[i]``."""

    times: np.ndarray
    field: SpectralField
    mass: np.ndarray
    momentum: np.ndarray
    hamiltonian: np.ndarray

    @property
    def grid(self) -> GridSpec:
        return self.field.grid

    @property
    def snapshots(self) -> list:
        """One read-only one-row field per record, viewing the stack."""
        return [self.field[i] for i in range(len(self))]

    def __len__(self):
        return len(self.times)


def airy_propagate(field: SpectralField, t: float) -> SpectralField:
    """Exact free (Airy) flow: coeff(xi) <- exp(i t xi^3) coeff(xi), row by row."""
    return SpectralField(field.grid,
                         field.half * airy_phase(field.grid.xi[:field.half.shape[-1]], t))


def classical_invariants(field: SpectralField):
    """(mass, momentum, hamiltonian) with continuous normalization, one per row of a stack.

    mass = int u dx, momentum = int u^2 dx,
    hamiltonian = int (u_x^2 / 2 - u^3 / 6) dx.
    The cubic and quadratic integrands are evaluated on a 2x refined grid,
    which keeps their quadrature alias-free for band-limited fields.
    """
    g, half = field.grid, field.half
    mass = np.take(half.real, 0, axis=-1)
    u = g.half_to_values(half, 2 * g.num_points)
    ux = g.half_to_values(1j * np.abs(g.xi[:half.shape[-1]]) * half, 2 * g.num_points)
    hamiltonian = np.sum(0.5 * ux * ux - u * u * u / 6.0, axis=-1) * (0.5 * g.dx)
    return mass, g.inner(half), hamiltonian


def _ifrk4(xi, dt, m):
    """Integrating-factor RK4 (exact Airy half steps): the band step, the tail's phase."""
    e_half = airy_phase(xi, dt / 2)
    e_full = e_half * e_half
    eh, ef, dt_eh, two_eh = e_half[:m], e_full[:m], dt * e_half[:m], 2 * e_half[:m]

    def step(uh, nonlinear):
        n1 = nonlinear(uh)
        a = eh * (uh + (dt / 2) * n1)
        n2 = nonlinear(a)
        b = eh * uh + (dt / 2) * n2
        n3 = nonlinear(b)
        eu = ef * uh
        c = eu + dt_eh * n3
        n4 = nonlinear(c)
        return eu + (dt / 6) * (ef * n1 + two_eh * (n2 + n3) + n4)

    return step, e_full[m:]


def _etdrk4(xi, dt, m):
    """ETDRK4 (Kassam & Trefethen 2005), phi on a 64-point contour: band step, tail phase."""
    lam = 1j * xi ** 3
    e_full = np.exp(lam * dt)
    e_half = np.exp(lam * dt / 2)
    r = np.exp(2j * np.pi * (np.arange(1, 65) - 0.5) / 64)
    lr = lam[:m, None] * dt + r[None, :]
    q = dt * np.mean((np.exp(lr / 2) - 1) / lr, axis=1)
    f1 = dt * np.mean((-4 - lr + np.exp(lr) * (4 - 3 * lr + lr ** 2)) / lr ** 3, axis=1)
    two_f2 = 2 * (dt * np.mean((2 + lr + np.exp(lr) * (-2 + lr)) / lr ** 3, axis=1))
    f3 = dt * np.mean((-4 - 3 * lr - lr ** 2 + np.exp(lr) * (4 - lr)) / lr ** 3, axis=1)
    eh, ef = e_half[:m], e_full[:m]

    def step(uh, nonlinear):
        n1 = nonlinear(uh)
        ehu = eh * uh
        a = ehu + q * n1
        n2 = nonlinear(a)
        b = ehu + q * n2
        n3 = nonlinear(b)
        c = eh * a + q * (2 * n3 - n1)
        n4 = nonlinear(c)
        return ef * uh + f1 * n1 + two_f2 * (n2 + n3) + f3 * n4

    return step, e_full[m:]


def evolve(f: SpectralField, T: float, config: SolverConfig = SolverConfig()) -> Trajectory:
    """Integrate the nonlinear flow over [0, T], recording every record_every steps.

    Each record is a row of one preallocated stack, whose invariants are taken at the end.
    The datum must be negligible at the domain edge; that check is repeated at every record.
    """
    if not 0.0 < T < np.inf:
        raise ConfigError(f"T must be positive and finite, got {T}")
    grid = f.grid
    if config.check_boundary:
        check_boundary_smallness(f, time=0.0)

    half = grid.num_points // 2 + 1
    xi = np.abs(grid.xi[:half])  # Nyquist taken positive
    m = grid.band
    dfactor = -0.5j * xi[:m] / grid.dx
    u, buf = np.empty(grid.num_points), np.empty(half, dtype=complex)

    def nonlinear(band):
        _grid.irfft(band, u.size, out=u)
        np.multiply(u, u, out=u)
        return dfactor * _grid.rfft(u, out=buf)[:m]

    band, tail = f.half[:m], f.half[m:]
    num_steps = max(1, int(round(T / config.dt)))
    dt = T / num_steps  # land exactly on T
    step, e_tail = (_ifrk4 if config.scheme == "ifrk4" else _etdrk4)(xi, dt, m)

    records = 1 + -(-num_steps // config.record_every)
    times, stack, j = np.zeros(records), np.empty((records, half), dtype=complex), 1
    stack[0] = f.half
    for i in range(1, num_steps + 1):
        # full-spectrum operand order kept (a*b != b*a in the last bit): snapshots match it bitwise
        with np.errstate(invalid="ignore", over="ignore"):
            band = step(band, nonlinear)
            tail = e_tail * tail
        if i % config.record_every == 0 or i == num_steps:
            t = i * dt
            row = stack[j]
            row[:m], row[m:] = band, tail
            if not np.all(np.isfinite(row)):
                raise BlowupError(
                    f"non-finite values during stepping; last valid time t = {times[j - 1]:.6g}",
                    last_valid_time=float(times[j - 1]),
                )
            snap = SpectralField(grid, row, copy=False)  # stores the row's real ends in place
            if config.check_boundary:
                check_boundary_smallness(snap, time=t)
            times[j], j = t, j + 1
    snaps = SpectralField(grid, stack, copy=False)
    # row by row: blocks of rows need (rows x 2n) work arrays, which raise peak RSS
    invariants = np.array([classical_invariants(snaps[i]) for i in range(records)]).T
    return Trajectory(times, snaps, *invariants)


def soliton(grid: GridSpec, speed: float = 1.0, center: float = 0.0) -> SpectralField:
    """Traveling-wave solution 3c sech^2(sqrt(c)/2 (x - center)) sampled on the grid."""
    x = grid.x
    vals = 3.0 * speed / np.cosh(np.sqrt(speed) / 2.0 * (x - center)) ** 2
    return forward_transform(vals, grid)
