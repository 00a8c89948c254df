"""Almost-conservation machinery for the smoothed flow.

Writing w = exp(sigma|D|) u for a solution u, the smoothed field satisfies

    w_t + w_xxx + w w_x = f(w),
    f(w) = (1/2) d_x [ w*w - exp(sigma|D|)( exp(-sigma|D|)w * exp(-sigma|D|)w ) ],

so the growth of ||w||_L2^2 = ||u||_{G^sigma}^2 over a time interval equals
the work integral 2 * int w f(w) dt dx.  The commutator symbol is controlled
pointwise by 1 - exp(-r) <= r^theta with r = sigma(|xi1|+|xi2|-|xi1+xi2|),
which is what drives the sigma^(3/4) smallness of the defect.

On same-sign pairs r = 0; for an output xi > 0 the negative factor xi2 of an
opposite-sign pair is the smaller one, so the symbol is A(xi2) = 1 - exp(-2 sigma
|xi2|) <= 1 and f_hat(xi > 0) = i xi FT[w+ conj(A w+)], w+ = (w + iHw)/2 (H the
Hilbert transform); xi < 0 follows by Hermitian symmetry.  Nothing is lifted by
exp(+sigma|xi|), so nothing overflows and roundoff is not amplified, as it is
by up to exp(sigma|xi|) in the formula above computed as written.  w+ and A w+ live on
k in [0, m), so their product lives on |k| < m, and 2m - 1 points carry it unaliased (the
padding argument of Orszag's 2/3 rule): the transforms take 768 points at N = 1024.

``measure_conservation`` takes the snapshot stack ``_BLOCK`` rows at a time: one ``smooth``,
one ``commutator_term`` and row-wise Parseval sums per block, bitwise equal to one snapshot
at a time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as _grid
from .errors import KdvradError
from .gevrey import GevreyParams, gevrey_norm, smooth
from .grid import SpectralField
from .scheduler import local_existence_time
from .solver import SolverConfig, Trajectory, evolve

#: rows per block: bounds the FFT work arrays, the sweep's largest (at N = 1024, five sigmas on 129
#: snapshots peak 1.9 MiB higher with 32 rows; 8 rows save 0.7 MiB but run 6 % slower)
_BLOCK = 16


def commutator_term(w: SpectralField, sigma: float,
                    dealias: float = 2.0 / 3.0) -> SpectralField:
    """Source term f(w) of the smoothed flow on the dealiased band, per row; zero at sigma = 0.
    One irfft of the stacked half-spectra of w, Hw, Aw and HAw, one rfft of Re and Im of
    w+ conj(A w+), band k < m only; no (-1)^k, as every factor is shifted alike.  Both take
    n_c points, the least even 2^p or 3 2^p >= 2m - 1 (<= n): as w+ and A w+ live on k in [0, m),
    their product lives on |k| < m.  The factor n_c / n restores the grid's normalization."""
    if not 0 <= sigma < np.inf:
        raise ValueError("sigma must be nonnegative and finite")
    if not 0 < dealias <= 1:
        raise ValueError("dealias must lie in (0, 1]")
    if sigma == 0.0:
        return SpectralField(w.grid, np.zeros_like(w.half))
    g, n = w.grid, w.grid.num_points
    m = g.band_size(dealias)
    xi, wh = g.xi[:m], w.half[..., :m]
    awh = -np.expm1(-2.0 * sigma * xi) * wh
    q = 1 << (2 * m - 1).bit_length()  # the least power of two >= 2m
    n_c = 3 * q // 4 if 3 * q // 4 >= 2 * m else q  # even, as rfft needs, and >= 2m - 1
    a, b, c, d = _grid.irfft(np.stack((wh, -1j * wh, awh, -1j * awh)), n_c)
    re, im = _grid.rfft(np.stack((a * c + b * d, b * c - a * d)))[..., :m]
    half = np.zeros(w.half.shape, dtype=complex)
    half[..., :m] = (0.25j * n_c / (n * g.dx)) * xi * (re + 1j * im)
    return SpectralField(g, half)


@dataclass(frozen=True)
class ConservationReport:
    """Almost-conservation measurement for one sigma on one trajectory."""

    sigma: float
    interval: tuple
    lhs: float            # sup_t ||u(t)||^2 in the sigma-Gevrey norm
    rhs_base: float       # ||u(0)||^2
    error_measured: float # max(lhs - rhs_base, 0)
    r_integral: float     # 2 |int 1_I w f(w) dt dx|, the work-integral defect
    bound_cubed: float    # ||u(0)||^3 proxy for the cubic right side
    identity_rel: float   # identity_abs / max(r_integral, tiny)
    identity_abs: float   # |(||w(t0)||^2 - ||w(0)||^2) - int 2 w f(w)|
    floor_rel: float      # max_t eps max|u_hat| exp(sigma xi_band) / max|w_hat|, on the band


def measure_conservation(u_trajectory: Trajectory, sigma: float) -> ConservationReport:
    """Sigma-Gevrey energies and the work-integral defect from one smoothing pass.

    Each snapshot is smoothed once to w = exp(sigma|D|) u.  The energies
    ||w||^2 give the sup and the base of the almost-conservation law; the flux
    2 int w f(w) dx is integrated by the trapezoidal rule, and both sides of
    d/dt ||w||^2 = 2 int w f(w) dx over the interval must agree to quadrature
    accuracy.  ``floor_rel`` is the roundoff eps max|u_hat| lifted to the band edge, relative
    to max|w_hat| (maxima over the band), over the snapshots whose band is nonzero: near 1, w
    is itself roundoff at the band edge; 0 for a zero field.
    """
    if len(u_trajectory) < 3:
        raise KdvradError("need at least 3 snapshots for the quadrature")
    u, g = u_trajectory.field, u_trajectory.grid
    energy, flux, floor = np.empty(len(u_trajectory)), np.empty(len(u_trajectory)), 0.0
    m = g.band
    roundoff = np.finfo(float).eps * np.exp(sigma * g.xi[m - 1])
    for rows in (slice(lo, lo + _BLOCK) for lo in range(0, len(u_trajectory), _BLOCK)):
        block = u[rows]
        w = smooth(block, sigma)
        with np.errstate(over="ignore"):  # float_power is C pow, as a float's ** 2 is
            energy[rows] = np.float_power(w.l2_norm(), 2)
        overflowed = np.flatnonzero(~np.isfinite(energy[rows]))
        if overflowed.size:  # raise as one snapshot at a time: every lift first, then energy
            smooth(u[rows.stop:], sigma)
            gevrey_norm(u[rows.start + overflowed[0]], GevreyParams(sigma))
        flux[rows] = 2.0 * g.inner(w.half, commutator_term(w, sigma).half)
        top = np.max(np.abs(w.half[..., :m]), -1)
        live = top > 0  # a zero band has no roundoff floor to compare against
        peaks = np.max(np.abs(block.half[..., :m]), -1)[live] / top[live]
        floor = max(floor, float(roundoff * np.max(peaks, initial=0.0)))
    times = u_trajectory.times
    integral = float(np.trapezoid(flux, times))
    identity_abs = float(abs(energy[-1] - energy[0] - integral))
    lhs = float(np.max(energy))
    base = float(energy[0])
    return ConservationReport(
        sigma=sigma,
        interval=(float(times[0]), float(times[-1])),
        lhs=lhs,
        rhs_base=base,
        error_measured=max(lhs - base, 0.0),
        r_integral=abs(integral),
        bound_cubed=base ** 1.5,
        identity_rel=identity_abs / max(abs(integral), 1e-300),
        identity_abs=identity_abs,
        floor_rel=floor,
    )


def prepare_acl_trajectory(f: SpectralField, sigma0: float, num_snapshots: int = 128,
                           steps_per_snapshot: int = 10) -> Trajectory:
    """Evolve f over one local-existence interval with dense snapshots.

    The interval is t0 = C_LWP * ||f||_{G^sigma0}^(-2) (``local_existence_time``);
    the step size is tied to the snapshot density so the work-integral quadrature
    error sits well below the identity-check tolerance.
    """
    gamma = gevrey_norm(f, GevreyParams(sigma0, 0.0))
    t0 = local_existence_time(gamma)
    dt = t0 / (num_snapshots * steps_per_snapshot)
    config = SolverConfig(dt=dt, record_every=steps_per_snapshot)
    return evolve(f, t0, config)


def smoothing_multiplier_bounds(xi1: float, xi2: float, sigma: float):
    """The pointwise chain controlling the commutator symbol, at the paper's theta = 3/4.

    Returns (lhs, rhs1, rhs2) with
        lhs  = 1 - exp(-r),              r = sigma (|xi1|+|xi2|-|xi1+xi2|)
        rhs1 = r^(3/4)
        rhs2 = sigma^(3/4) (2 min(|xi1|, |xi2|))^(3/4)
    and lhs <= rhs1 <= rhs2.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    xi1 = np.asarray(xi1, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    r = sigma * (np.abs(xi1) + np.abs(xi2) - np.abs(xi1 + xi2))
    lhs = 1.0 - np.exp(-r)
    rhs1 = r ** 0.75
    rhs2 = (sigma * 2.0 * np.minimum(np.abs(xi1), np.abs(xi2))) ** 0.75
    return lhs, rhs1, rhs2
