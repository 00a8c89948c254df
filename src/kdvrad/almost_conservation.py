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
by up to exp(sigma|xi|) in the formula above computed as written.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KdvradError
from .gevrey import GevreyParams, gevrey_norm, smooth
from .grid import SpectralField, dealias_mask, dealiased_product, derivative
from .scheduler import local_existence_time
from .solver import SolverConfig, Trajectory, evolve


def commutator_term(w: SpectralField, sigma: float,
                    dealias: float = 2.0 / 3.0) -> SpectralField:
    """Source term f(w) of the smoothed flow on the dealiased band; exactly zero at
    sigma = 0.  One irfft of the stacked half-spectra of w, Hw, Aw and HAw, one rfft of
    Re and Im of w+ conj(A w+), band k < m only; no (-1)^k, as every factor is shifted alike."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0.0:
        return SpectralField(w.grid, np.zeros_like(w.half))
    g, n = w.grid, w.grid.num_points
    m = int(np.count_nonzero(dealias_mask(g, dealias)[:n // 2 + 1]))
    xi, wh = g.xi[:m], w.half[:m]
    awh = -np.expm1(-2.0 * sigma * xi) * wh
    a, b, c, d = np.fft.irfft(np.stack((wh, -1j * wh, awh, -1j * awh)), n)
    re, im = np.fft.rfft(np.stack((a * c + b * d, b * c - a * d)))[:, :m]
    half = np.zeros(n // 2 + 1, dtype=complex)
    half[:m] = (0.25j / g.dx) * xi * (re + 1j * im)
    return SpectralField(g, half)


def pairing(f: SpectralField, g: SpectralField) -> float:
    """Real L2 pairing int f g dx via the weighted half-spectrum sum."""
    return float(np.sum(f.grid.half_weight * np.real(np.conj(f.half) * g.half))
                 * f.grid.spectral_weight)


def modified_residual(u_trajectory: Trajectory, sigma: float) -> float:
    """Consistency check of the smoothed-flow equation.

    Smooths the recorded snapshots and returns the max over interior times of
    || w_t + w_xxx + w w_x - f(w) ||_L2 with w_t from centered differences.
    A small value certifies that the implemented f(w) is the true commutator.
    """
    if len(u_trajectory) < 3:
        raise KdvradError("need at least 3 snapshots for a centered difference")
    w = [smooth(s, sigma) for s in u_trajectory.snapshots]
    times = u_trajectory.times
    worst = 0.0
    for i in range(1, len(w) - 1):
        dt2 = times[i + 1] - times[i - 1]
        w_t = (w[i + 1] - w[i - 1]) * (1.0 / dt2)
        w_xxx = derivative(w[i], 3)
        w_wx = derivative(dealiased_product(w[i], w[i])) * 0.5
        rhs = commutator_term(w[i], sigma)
        resid = (w_t + w_xxx + w_wx - rhs).l2_norm()
        worst = max(worst, resid)
    return worst


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


def measure_conservation(u_trajectory: Trajectory, sigma: float) -> ConservationReport:
    """Sigma-Gevrey energies and the work-integral defect from one smoothing pass.

    Each snapshot is smoothed once to w = exp(sigma|D|) u.  The energies
    ||w||^2 give the sup and the base of the almost-conservation law; the flux
    2 int w f(w) dx is integrated by the trapezoidal rule, and both sides of
    d/dt ||w||^2 = 2 int w f(w) dx over the interval must agree to quadrature
    accuracy.
    """
    if len(u_trajectory) < 3:
        raise KdvradError("need at least 3 snapshots for the quadrature")
    w = [smooth(s, sigma) for s in u_trajectory.snapshots]
    with np.errstate(over="ignore"):
        energy = np.array([wi.l2_norm() ** 2 for wi in w])
    overflowed = np.flatnonzero(~np.isfinite(energy))
    if overflowed.size:  # raises SpectralOverflowError with the certifiable sigma
        gevrey_norm(u_trajectory.snapshots[overflowed[0]], GevreyParams(sigma))
    flux = np.array([2.0 * pairing(wi, commutator_term(wi, sigma)) for wi in w])
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
    )


def prepare_acl_trajectory(f: SpectralField, sigma0: float, num_snapshots: int = 128,
                           steps_per_snapshot: int = 10) -> Trajectory:
    """Evolve f over one local-existence interval with dense snapshots.

    The interval is t0 = 0.01 * ||f||_{G^sigma0}^(-2) (``local_existence_time``);
    the step size is tied to the snapshot density so the work-integral quadrature
    error sits well below the identity-check tolerance.
    """
    gamma = gevrey_norm(f, GevreyParams(sigma0, 0.0))
    t0 = local_existence_time(gamma)
    dt = t0 / (num_snapshots * steps_per_snapshot)
    config = SolverConfig(dt=dt, record_every=steps_per_snapshot)
    return evolve(f, t0, config)


def smoothing_multiplier_bounds(xi1: float, xi2: float, sigma: float,
                                theta: float = 0.75):
    """The pointwise chain controlling the commutator symbol.

    Returns (lhs, rhs1, rhs2) with
        lhs  = 1 - exp(-r),              r = sigma (|xi1|+|xi2|-|xi1+xi2|)
        rhs1 = r^theta
        rhs2 = sigma^theta (2 min(|xi1|, |xi2|))^theta
    and lhs <= rhs1 <= rhs2 for theta in [0, 1].
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    xi1 = np.asarray(xi1, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    r = sigma * (np.abs(xi1) + np.abs(xi2) - np.abs(xi1 + xi2))
    lhs = 1.0 - np.exp(-r)
    rhs1 = r ** theta
    rhs2 = (sigma * 2.0 * np.minimum(np.abs(xi1), np.abs(xi2))) ** theta
    return lhs, rhs1, rhs2
