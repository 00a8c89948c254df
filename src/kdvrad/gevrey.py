"""Gevrey norms, exponential smoothing and Fourier-side analyticity tracing.

The weighted norm

    ||f||_{sigma,s} = ( sum_k exp(2 sigma |xi_k|) (1 + xi_k^2)^s |f_hat(xi_k)|^2 w )^(1/2)

reduces to the L2 norm at sigma = s = 0 and to the Sobolev H^s norm at
sigma = 0.  A strictly positive sigma certifies a holomorphic extension to
the strip of half-width sigma, which is what ``estimate_radius`` traces from
the exponential decay rate of the coefficient magnitudes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSpectralRangeError, SpectralOverflowError
from .grid import SpectralField, require_one_field

#: log-magnitude ceiling; exp of anything above this is treated as overflow
_LOG_LIMIT = 690.0
_EXP_LIMIT = np.exp(_LOG_LIMIT)

# Radius-fit window: bins with |coeff| in [_FLOOR_REL, _CEIL_REL] * max|coeff|
# are usable; the fit uses the upper _UPPER_FRACTION of that band in |xi|,
# needs at least _MIN_BINS bins, and flags superexponential decay when the
# local slope steepens by more than _STEEPENING across the window.
_FLOOR_REL = 1e-13
_CEIL_REL = 1e-2
_UPPER_FRACTION = 0.6
_MIN_BINS = 8
_STEEPENING = 0.25


@dataclass(frozen=True)
class GevreyParams:
    """Finite strip half-width sigma >= 0 and finite Sobolev index s."""

    sigma: float
    s: float = 0.0

    def __post_init__(self):
        if not (0 <= self.sigma < np.inf and np.isfinite(self.s)):
            raise ValueError("sigma must be nonnegative and finite, s finite")


def _log_weighted_magnitudes(field: SpectralField, sigma: float, s: float) -> np.ndarray:
    xi = field.grid.xi
    mag = np.abs(field.half)
    logmag = np.where(mag == 0, -np.inf, np.log(np.where(mag == 0, 1.0, mag)))
    return sigma * xi + 0.5 * s * np.log1p(xi * xi) + logmag


def _certifiable_sigma(field: SpectralField, s: float, budget: float = 0.5 * _LOG_LIMIT):
    """The largest sigma at which no weighted term passes exp(budget), or None when one passes
    it at sigma = 0 already or a coefficient is inf or nan."""
    xi = field.grid.xi
    rest = _log_weighted_magnitudes(field, 0.0, s)
    if not np.all(rest <= budget):  # nan compares False
        return None
    ok = (xi > 0) & (rest > -np.inf)
    if not np.any(ok):
        return np.inf
    return float(np.min((budget - rest[ok]) / xi[ok]))


def _overflow(message: str, cert) -> SpectralOverflowError:
    shown = "none" if cert is None else f"{cert:.6g}"
    return SpectralOverflowError(f"{message}; certifiable sigma = {shown}", certifiable_sigma=cert)


def _refuse_non_finite(field: SpectralField):
    """Raise SpectralOverflowError naming the first bin k (of any row) that is inf or nan."""
    bad = np.argwhere(~np.isfinite(field.half))
    if bad.size:
        k = int(bad[0][-1])
        raise _overflow(f"coefficient k = {k} (xi = {field.grid.xi[k]:.6g}) is not finite", None)


def gevrey_norm(field: SpectralField, params: GevreyParams) -> float:
    """Weighted l2 norm of the coefficients with continuous normalization.

    Raises SpectralOverflowError when the exponential weight would overflow or a
    coefficient is not finite.  It carries the largest admissible sigma for this field,
    or None when the call raises at sigma = 0 too.  Zero coefficients carry no weight.
    """
    require_one_field(field, "gevrey_norm")
    e = _log_weighted_magnitudes(field, params.sigma, params.s)
    nonzero = e != -np.inf
    if not np.all(2.0 * e[nonzero] <= _LOG_LIMIT):
        raise _overflow(f"exp({params.sigma}*|xi|)-weighted coefficients overflow or are not "
                        "finite", _certifiable_sigma(field, params.s))
    total = np.sum(field.grid.half_weight[nonzero] * np.exp(2.0 * e[nonzero]))
    return float(np.sqrt(total * field.grid.spectral_weight))


def hs_norm(field: SpectralField, s: float = 0.0) -> float:
    return gevrey_norm(field, GevreyParams(0.0, s))


def smooth(field: SpectralField, sigma: float) -> SpectralField:
    """Apply the multiplier exp(sigma*|xi|) (sigma may be negative).

    Zero coefficients stay exactly zero at any sigma; for sigma > 0 a nonzero one weighted
    past exp(_LOG_LIMIT), or by an inf weight, raises SpectralOverflowError.  An inf or nan
    coefficient raises it at any sigma, naming its bin, with certifiable sigma None.  A stack
    is smoothed row by row.
    """
    if not np.isfinite(sigma):
        raise ValueError("sigma must be finite")
    if sigma <= 0.0:
        _refuse_non_finite(field)
    if sigma == 0.0:
        return SpectralField(field.grid, field.half)
    with np.errstate(over="ignore"):
        lift = np.exp(sigma * field.grid.xi)
    if sigma > 0:
        mag = np.abs(field.half)
        over = ~(mag <= _EXP_LIMIT / lift)  # nan compares False: it is over too
        if np.any(over):  # certified on the first row that overflows, as on that row alone
            _refuse_non_finite(field)
            first = SpectralField(field.grid, field.half[tuple(np.argwhere(over)[0][:-1])])
            cert = _certifiable_sigma(first, 0.0, budget=_LOG_LIMIT)
            # a finite field never raises at sigma = 0, where nothing is lifted
            raise _overflow(f"exp({sigma}*|xi|) overflows on this field",
                            0.0 if cert is None else cert)
        lift = np.where(mag == 0.0, 0.0, lift)
    return SpectralField(field.grid, field.half * lift)


@dataclass(frozen=True)
class RadiusEstimate:
    sigma_hat: float
    fit_window: tuple
    residual: float
    floor_hit: bool
    superexponential: bool
    num_bins: int


def estimate_radius(field: SpectralField) -> RadiusEstimate:
    """Least-squares decay rate of log|coeff| against |xi|.

    sigma_hat = -slope over the fit window set by the module constants above, on
    k = 1..n/2 - 1.  Entire-function (faster than exponential) decay is flagged
    instead of reported as a single rate; an inf or nan coefficient raises
    SpectralOverflowError naming its bin.
    """
    require_one_field(field, "estimate_radius")
    _refuse_non_finite(field)
    c = field.half
    peak = float(np.max(np.abs(c)))
    if peak == 0.0:
        raise InsufficientSpectralRangeError("field is identically zero")
    # drop the 0 and Nyquist bins
    mag = np.abs(c[1:-1])
    xi = field.grid.xi[1:-1]
    floor = _FLOOR_REL * peak
    usable = (mag >= floor) & (mag <= _CEIL_REL * peak)
    floor_hit = bool(np.any(mag < floor))
    if np.count_nonzero(usable) < _MIN_BINS:
        raise InsufficientSpectralRangeError(
            f"insufficient spectral range: {np.count_nonzero(usable)} usable bins "
            f"< {_MIN_BINS}"
        )
    idx = np.flatnonzero(usable)
    xi_lo, xi_hi = xi[idx[0]], xi[idx[-1]]
    cut = xi_hi - _UPPER_FRACTION * (xi_hi - xi_lo)
    sel = usable & (xi >= cut)
    if np.count_nonzero(sel) < _MIN_BINS:
        sel = usable
    xs = xi[sel]
    ys = np.log(mag[sel])
    a = np.vstack([xs, np.ones_like(xs)]).T
    (slope, intercept), res, *_ = np.linalg.lstsq(a, ys, rcond=None)
    fitted = a @ np.array([slope, intercept])
    rms = float(np.sqrt(np.mean((ys - fitted) ** 2)))

    # superexponential detector: smoothed local slopes steepening monotonically
    # (a window holds at least _MIN_BINS bins, so sm holds at least _MIN_BINS - 3 slopes)
    local = np.diff(ys) / np.diff(xs)
    sm = np.convolve(local, np.ones(3) / 3, mode="valid")
    steepening = False
    if sm[0] < 0:
        span = np.max(np.abs(sm))
        monotone = bool(np.all(np.diff(sm) <= 0.02 * span))
        steepening = monotone and sm[-1] < (1.0 + _STEEPENING) * sm[0]
    sigma_hat = float(-sm[-1]) if steepening else float(-slope)
    return RadiusEstimate(
        sigma_hat=sigma_hat,
        fit_window=(float(xs[0]), float(xs[-1])),
        residual=rms,
        floor_hit=floor_hit,
        superexponential=steepening,
        num_bins=int(xs.size),
    )
