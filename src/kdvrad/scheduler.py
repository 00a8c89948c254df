"""Iteration of the local theory and the certified strip-width schedule.

One local-existence step lasts t0 = c * Gamma^(-6/(3+2s)) where Gamma is the
data norm.  Repeating the step with the almost-conservation increment keeps
the squared norm within doubling provided

    (2 T / t0) * 2^(3/2) * C * sigma^(3/4) * Gamma <= 1.

Equality gives sigma(T) = c0 T^(-4/3), c0 = [t0 / (2^(5/2) C Gamma)]^(4/3),
clamped at the initial strip width sigma0 for short horizons.  The induction
bound after the last step k = floor(T/t0) + 1 is Gamma^2 + k 2^(3/2) C
sigma(T)^(3/4) Gamma^3.  Both are array expressions over T.  Along a run, a
record at t < t0 lies in the first step: its certified width is sigma0 and
its bound is the one at T = t0.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gevrey import GevreyParams, estimate_radius, gevrey_norm
from .grid import SpectralField
from .solver import SolverConfig, Trajectory, evolve

#: placeholder local-existence time constant c in t0 = c Gamma^(-6/(3+2s))
C_LWP = 0.01


@dataclass(frozen=True)
class ScheduleParams:
    sigma0: float          # initial strip half-width
    gamma0: float          # data norm at sigma0
    c_lwp: float = C_LWP   # local-existence time constant
    c_acl: float = 1.0     # almost-conservation constant
    s: float = 0.0
    t0: float = field(init=False)  # one local-existence step at gamma0

    def __post_init__(self):
        if not all(0 < c < np.inf for c in (self.sigma0, self.gamma0, self.c_lwp, self.c_acl)):
            raise ValueError("all schedule constants must be strictly positive and finite")
        object.__setattr__(self, "t0", local_existence_time(self.gamma0, self.s, self.c_lwp))


def local_existence_time(gamma: float, s: float = 0.0, c: float = C_LWP) -> float:
    """t0 = c * gamma^(-6/(3+2s)); requires 3 + 2s > 0."""
    if not 0 < gamma < np.inf:
        raise ValueError("gamma must be positive and finite")
    if not 3.0 + 2.0 * s > 0:
        raise ValueError("local time formula requires 3 + 2s > 0")
    return c * gamma ** (-6.0 / (3.0 + 2.0 * s))


def sigma_for_horizon(params: ScheduleParams, horizon: float | np.ndarray):
    """Largest certified strip width for reaching time ``horizon`` (a float or an array).

    Returns min(sigma0, c0 * horizon^(-4/3)) with
    c0 = [t0 / (2^(5/2) C Gamma)]^(4/3); at the returned value the doubling
    condition holds with equality whenever the clamp is not binding.
    """
    if not np.all((0 < horizon) & (horizon < np.inf)):
        raise ValueError("horizon must be positive and finite")
    c0 = (params.t0 / (2.0 ** 2.5 * params.c_acl * params.gamma0)) ** (4.0 / 3.0)
    # float_power is C pow, as a float's ** is: an array entry equals the scalar call bitwise
    return np.minimum(params.sigma0, c0 * np.float_power(horizon, -4.0 / 3.0))


def induction_bound(params: ScheduleParams, horizon: float | np.ndarray):
    """Squared-norm bound after the last step k = floor(T/t0) + 1 of the induction.

    The bound grows by 2^(3/2) C sigma(T)^(3/4) Gamma^3 per step, affine in k,
    so the last step carries the largest bound.
    """
    sigma = sigma_for_horizon(params, horizon)
    increment = 2.0 ** 1.5 * params.c_acl * np.float_power(sigma, 0.75) * params.gamma0 ** 3
    return params.gamma0 ** 2 + (np.floor(horizon / params.t0) + 1) * increment


def doubling_condition_value(params: ScheduleParams, horizon: float,
                             sigma: float) -> float:
    """(2T/t0) 2^(3/2) C sigma^(3/4) Gamma; equals 1 at the unclamped schedule."""
    return (2.0 * horizon / params.t0) * 2.0 ** 1.5 * params.c_acl \
        * sigma ** 0.75 * params.gamma0


@dataclass
class ScheduleComparison:
    """Measured radius along a run against the certified schedule."""

    times: np.ndarray
    sigma_certified: np.ndarray
    sigma_hat: np.ndarray
    gamma_measured: np.ndarray
    gamma_sq_bound: np.ndarray
    within_doubling: np.ndarray
    violations: list

    @property
    def contract_holds(self) -> bool:
        return not self.violations


def empirical_schedule(f: SpectralField, params: ScheduleParams, horizon: float,
                       config: SolverConfig = SolverConfig(),
                       trajectory: Trajectory = None) -> ScheduleComparison:
    """Run the flow to the horizon and compare measured vs certified radius.

    The certified curve is a lower bound, so sigma_hat >= sigma_certified is
    the contract at every recorded time; any violation is recorded with full
    metadata in ``violations`` rather than silently dropped.
    """
    traj = trajectory if trajectory is not None else evolve(f, horizon, config)
    times = traj.times
    reach = np.maximum(times, params.t0)
    cert = np.where(times < params.t0, params.sigma0, sigma_for_horizon(params, reach))
    bound = induction_bound(params, reach)
    hat, gam = np.empty(len(times)), np.empty(len(times))
    for i, snap in enumerate(traj.snapshots):
        hat[i] = estimate_radius(snap).sigma_hat
        gam[i] = gevrey_norm(snap, GevreyParams(cert[i], params.s))
    violations = [{"time": float(times[i]), "sigma_hat": float(hat[i]),
                   "sigma_certified": float(cert[i]), "gamma_measured": float(gam[i]),
                   "params": params}
                  for i in np.flatnonzero(hat < cert)]
    return ScheduleComparison(
        times=times,
        sigma_certified=cert,
        sigma_hat=hat,
        gamma_measured=gam,
        gamma_sq_bound=bound,
        within_doubling=bound <= 2.0 * params.gamma0 ** 2 * (1 + 1e-12),
        violations=violations,
    )
