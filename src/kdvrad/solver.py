"""Pseudospectral time integration of u_t + u_xxx + u u_x = 0.

The linear part is handled exactly through the Airy phase exp(i t xi^3); the
quadratic nonlinearity -(1/2) d_x(u^2) is evaluated in physical space with
2/3-rule dealiasing.  The frequencies, the dealias band and the phase come
from ``grid``.  The state is the grid's k = 0..n/2 half-spectrum dx (-1)^k rfft(u)
(``GridSpec.to_half``), which is also what a ``SpectralField`` snapshot stores.  Squaring needs
no (-1)^k multiply: on the half-spectrum (-1)^k shifts u by half the period,
which commutes with squaring, so only the 1/dx is left, in the derivative factor.
The nonlinear term reads and writes only the 2/3 band k < ``grid.band``, so only the band is
state and runs the RK stages, and ``grid.irfft`` zero-pads: no mask multiply.  The tail
k >= ``grid.band`` follows the Airy group alone; each record writes it in closed form, the
datum's tail times ``airy_phase`` at the record's time, the same for both schemes.

A step allocates nothing.  Each ``evolve`` call owns its buffers: the scheme's eight
band-sized stage arrays, the FFT work arrays and a band copy of the datum, which the step
overwrites in place; ``f.half`` is never written.
The loop enters ``np.errstate`` once per record interval, not once per step.
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
        if not (isinstance(self.record_every, (int, np.integer)) and self.record_every >= 1):
            raise ConfigError(f"record_every must be a positive integer, got {self.record_every!r}")


@dataclass(frozen=True)
class Trajectory:
    """The recorded snapshots as one (records x n/2+1) stack, row i at ``times[i]``.  On
    uniform times it is also the space-time layer's field (``spacetime``, ``dyadic``)."""

    times: np.ndarray
    field: SpectralField

    @property
    def grid(self) -> GridSpec:
        return self.field.grid

    @property
    def snapshots(self) -> list:
        """One read-only one-row field per record, viewing the stack."""
        return [self.field[i] for i in range(len(self))]

    def __len__(self):
        return len(self.times)


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
    ux = g.half_to_values(1j * g.xi * half, 2 * g.num_points)
    hamiltonian = np.sum(0.5 * ux * ux - u * u * u / 6.0, axis=-1) * (0.5 * g.dx)
    return mass, g.inner(half), hamiltonian


def _ifrk4(xi, dt):
    """Integrating-factor RK4 (exact Airy half steps): the in-place step of the band ``xi``.

    The step's products and sums are those of the expression form, operands in the same order
    (a*b != b*a in the last bit), so it matches that form bitwise.
    """
    eh = airy_phase(xi, dt / 2)
    ef, dt_eh, two_eh = eh * eh, dt * eh, 2 * eh
    # complex 0-d arrays: a float scalar would be cast to complex on every multiply
    half_dt, sixth_dt = np.array(complex(dt / 2)), np.array(complex(dt / 6))
    n1, n2, n3, n4, a, b, eu, s = np.empty((8, xi.size), dtype=complex)
    mul, add = np.multiply, np.add

    def step(uh, nonlinear):
        # a = eh (uh + dt/2 n1), b = eh uh + dt/2 n2, c = eu + dt_eh n3 with eu = ef uh;
        # uh <- eu + dt/6 (ef n1 + two_eh (n2 + n3) + n4).  A ufunc's third argument is its out.
        nonlinear(uh, n1)
        add(uh, mul(half_dt, n1, s), a)
        mul(eh, a, a)
        nonlinear(a, n2)
        add(mul(eh, uh, b), mul(half_dt, n2, s), b)
        nonlinear(b, n3)
        mul(ef, uh, eu)
        add(eu, mul(dt_eh, n3, s), a)  # c
        nonlinear(a, n4)
        mul(two_eh, add(n2, n3, n2), n2)
        add(add(mul(ef, n1, s), n2, s), n4, s)
        add(eu, mul(sixth_dt, s, s), uh)

    return step


def _etdrk4(xi, dt):
    """ETDRK4 (Kassam & Trefethen 2005), phi on a 64-point contour: in-place step of the band.

    As in ``_ifrk4``, the step matches the expression form bitwise.
    """
    lam = 1j * xi ** 3
    ef, eh = np.exp(lam * dt), np.exp(lam * dt / 2)
    r = np.exp(2j * np.pi * (np.arange(1, 65) - 0.5) / 64)
    lr = lam[:, None] * dt + r[None, :]
    q = dt * np.mean((np.exp(lr / 2) - 1) / lr, axis=1)
    f1 = dt * np.mean((-4 - lr + np.exp(lr) * (4 - 3 * lr + lr ** 2)) / lr ** 3, axis=1)
    two_f2 = 2 * (dt * np.mean((2 + lr + np.exp(lr) * (-2 + lr)) / lr ** 3, axis=1))
    f3 = dt * np.mean((-4 - 3 * lr - lr ** 2 + np.exp(lr) * (4 - lr)) / lr ** 3, axis=1)
    two = np.array(complex(2))  # complex, as half_dt in ``_ifrk4``
    n1, n2, n3, n4, a, b, ehu, s = np.empty((8, xi.size), dtype=complex)
    mul, add = np.multiply, np.add

    def step(uh, nonlinear):
        # a = eh uh + q n1, b = eh uh + q n2, c = eh a + q (2 n3 - n1);
        # uh <- ef uh + f1 n1 + two_f2 (n2 + n3) + f3 n4, summed left to right
        nonlinear(uh, n1)
        add(mul(eh, uh, ehu), mul(q, n1, s), a)
        nonlinear(a, n2)
        add(ehu, mul(q, n2, s), b)
        nonlinear(b, n3)
        mul(q, np.subtract(mul(two, n3, s), n1, s), s)
        add(mul(eh, a, a), s, a)  # c
        nonlinear(a, n4)
        add(mul(ef, uh, uh), mul(f1, n1, s), uh)
        add(uh, mul(two_f2, add(n2, n3, n2), n2), uh)
        add(uh, mul(f3, n4, n4), uh)

    return step


def evolve(f: SpectralField, T: float, config: SolverConfig = SolverConfig()) -> Trajectory:
    """Integrate the nonlinear flow over [0, T], recording every record_every steps.

    Each record is a row of one preallocated stack, read-only once returned, as are the times.
    The datum must be negligible at the domain edge; that check is repeated at every record.
    """
    if not 0.0 < T < np.inf:
        raise ConfigError(f"T must be positive and finite, got {T}")
    grid = f.grid
    if config.check_boundary:
        check_boundary_smallness(f, time=0.0)

    xi, m = grid.xi, grid.band
    dfactor = -0.5j * xi[:m] / grid.dx
    n, u, buf = grid.num_points, np.empty(grid.num_points), np.empty(xi.size, dtype=complex)
    buf_band = buf[:m]

    def nonlinear(band, out):
        _grid.irfft(band, n, out=u)
        np.multiply(u, u, u)
        _grid.rfft(u, out=buf)
        np.multiply(dfactor, buf_band, out)

    band, tail = f.half[:m].copy(), f.half[m:]
    num_steps = max(1, int(round(T / config.dt)))
    dt = T / num_steps  # land exactly on T
    step = (_ifrk4 if config.scheme == "ifrk4" else _etdrk4)(xi[:m], dt)

    records = 1 + -(-num_steps // config.record_every)
    times, stack = np.zeros(records), np.empty((records, xi.size), dtype=complex)
    stack[0] = f.half
    for j in range(1, records):
        i = min(j * config.record_every, num_steps)  # the step this record is taken at
        with np.errstate(invalid="ignore", over="ignore"):
            for _ in range(i - (j - 1) * config.record_every):
                step(band, nonlinear)
        t = i * dt
        row = stack[j]
        row[:m] = band
        np.multiply(tail, airy_phase(xi[m:], t), row[m:])  # the free flow, exactly
        if not np.all(np.isfinite(row)):
            raise BlowupError(
                f"non-finite values during stepping; last valid time t = {times[j - 1]:.6g}",
                last_valid_time=float(times[j - 1]),
            )
        snap = SpectralField(grid, row, copy=False)  # stores the row's real ends in place
        if config.check_boundary:
            check_boundary_smallness(snap, time=t)
        times[j] = t
    times.setflags(write=False)
    stack.setflags(write=False)
    return Trajectory(times, SpectralField(grid, stack, copy=False))


def soliton(grid: GridSpec, speed: float = 1.0, center: float = 0.0) -> SpectralField:
    """Traveling-wave solution 3c sech^2(sqrt(c)/2 (x - center)) sampled on the grid."""
    x = grid.x
    vals = 3.0 * speed / np.cosh(np.sqrt(speed) / 2.0 * (x - center)) ** 2
    return forward_transform(vals, grid)
