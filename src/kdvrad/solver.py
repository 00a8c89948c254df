"""Pseudospectral time integration of u_t + u_xxx + u u_x = 0.

The linear part is exact through the Airy phase exp(i t xi^3) (``grid.airy_phase``); the
nonlinearity -(1/2) d_x(u^2) is squared in physical space under the 2/3 rule.  The state is the
band k < ``grid.band`` of the half-spectrum dx (-1)^k rfft(u) that a ``SpectralField`` stores:
the quadratic term reads and writes no other mode, ``grid.irfft`` zero-pads, and squaring needs
no (-1)^k, a half-period shift that commutes with it.  Both schemes step through one in-place
body, whose weights (``SCHEMES``) hold the derivative factor -i xi / (2 dx): ``nonlinear`` returns
the band of rfft(u^2) as a view.  Each record writes the tail k >= ``grid.band``, which follows
the Airy group alone, in closed form: the datum's tail times ``airy_phase``.

A step allocates nothing: each ``evolve`` call owns its buffers (five band-sized stage arrays,
the FFT work arrays and a band copy of the datum) and never writes ``f.half``.  The loop enters
``np.errstate`` once per record interval, not once per step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as _grid
from .errors import BlowupError, ConfigError
from .grid import (GridSpec, SpectralField, airy_phase, check_boundary_smallness,
                   forward_transform, require_one_field)


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 1e-4
    scheme: str = "ifrk4"
    record_every: int = 1000
    check_boundary: bool = True

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not isinstance(self.scheme, str) or self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; choose from {tuple(SCHEMES)}")
        n = self.record_every
        if isinstance(n, bool) or not (isinstance(n, (int, np.integer)) and n >= 1):
            raise ConfigError(f"record_every must be a positive integer, got {n!r}")


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


def _erk4(eh, ef, a21, a32, a43, b1, b23, b4, a41=None):
    """The in-place band step of exponential RK4 (Cox & Matthews 2002): its products and sums
    are those of the expression form, operands in the same order (a*b != b*a in the last bit)."""
    ehu, eu, a, p23, s = np.empty((5, eh.size), dtype=complex)
    mul, add = np.multiply, np.add

    def step(uh, nonlinear):
        # a = eh uh + a21 p1, b = eh uh + a32 p2, c = (ef uh [+ a41 p1]) + a43 p3, each p read
        # before the next call; uh <- ef uh + b1 p1 + b23 (p2 + p3) + b4 p4, left to right
        p = nonlinear(uh)
        mul(eh, uh, ehu)
        mul(ef, uh, eu)
        add(ehu, mul(a21, p, s), a)
        add(eu, mul(b1, p, s), uh)
        if a41 is not None:
            add(eu, mul(a41, p, s), eu)
        p = nonlinear(a)
        add(ehu, mul(a32, p, s), a)  # b
        p23[:] = p
        p = nonlinear(a)
        add(eu, mul(a43, p, s), a)  # c
        add(p23, p, p23)
        p = nonlinear(a)
        add(uh, mul(b23, p23, p23), uh)
        add(uh, mul(b4, p, s), uh)

    return step


def _ifrk4(xi, dt, dfactor):
    """Integrating-factor RK4 on the band ``xi``, its Airy half steps exact."""
    eh = airy_phase(xi, dt / 2)
    ef = eh * eh
    return _erk4(eh, ef, dt / 2 * eh * dfactor, dt / 2 * dfactor, dt * eh * dfactor,
                 dt / 6 * ef * dfactor, dt / 3 * eh * dfactor, dt / 6 * dfactor)


def _etdrk4(xi, dt, dfactor):
    """ETDRK4 (Kassam & Trefethen 2005), its stage c eh a + q (2 p3 - p1) regrouped."""
    lam = 1j * xi ** 3
    ef, eh = np.exp(lam * dt), np.exp(lam * dt / 2)
    r = np.exp(2j * np.pi * (np.arange(1, 65) - 0.5) / 64)
    lr = lam[:, None] * dt + r[None, :]
    q = dt * np.mean((np.exp(lr / 2) - 1) / lr, axis=1) * dfactor
    f1 = dt * np.mean((-4 - lr + np.exp(lr) * (4 - 3 * lr + lr ** 2)) / lr ** 3, axis=1) * dfactor
    two_f2 = 2 * (dt * np.mean((2 + lr + np.exp(lr) * (-2 + lr)) / lr ** 3, axis=1)) * dfactor
    f3 = dt * np.mean((-4 - 3 * lr - lr ** 2 + np.exp(lr) * (4 - lr)) / lr ** 3, axis=1) * dfactor
    return _erk4(eh, ef, q, q, 2 * q, f1, two_f2, f3, a41=(eh - 1) * q)


SCHEMES = {"ifrk4": _ifrk4, "etdrk4": _etdrk4}


def evolve(f: SpectralField, T: float, config: SolverConfig = SolverConfig()) -> Trajectory:
    """Integrate the nonlinear flow over [0, T], recording every record_every steps.

    Each record is a row of one preallocated stack, read-only once returned, as are the times.
    The datum must be negligible at the domain edge; that check is repeated at every record.
    """
    require_one_field(f, "evolve")
    if not 0.0 < T < np.inf:
        raise ConfigError(f"T must be positive and finite, got {T}")
    if not T / config.dt < np.inf:
        raise ConfigError(f"T / dt is not finite: T = {T:.6g}, dt = {config.dt:.6g}")
    grid = f.grid
    if config.check_boundary:
        check_boundary_smallness(f, time=0.0)

    xi, m = grid.xi, grid.band
    n, u, buf = grid.num_points, np.empty(grid.num_points), np.empty(xi.size, dtype=complex)
    square_band = buf[:m]

    def nonlinear(band):
        _grid.irfft(band, n, out=u)
        np.multiply(u, u, u)
        _grid.rfft(u, out=buf)
        return square_band

    band, tail = f.half[:m].copy(), f.half[m:]
    num_steps = max(1, int(round(T / config.dt)))
    dt = T / num_steps  # land exactly on T
    step = SCHEMES[config.scheme](xi[:m], dt, -0.5j * xi[:m] / grid.dx)

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
