"""Smooth cutoff and dyadic bump functions.

The cutoff ``chi`` is an even C-infinity function equal to 1 on [-1, 1] and
supported in (-2, 2); the transition uses the classical exp(-1/t) glue.  The
dyadic bumps ``beta_N`` telescope into a partition of unity,

    sum_{N >= 1 dyadic} beta_N(s) = 1   for |s| <= N_top,

with the zero frequency assigned to the N = 1 block.

A point with 2^j <= |s| < 2^(j+1) lies in two bands only: beta_(2^j)(s) = chi(s/2^j) and
beta_(2^(j+1))(s) = 1 - chi(s/2^j), the other cutoff being exactly 0 or 1 there; |s| < 1 lies
in band 1 alone.  ``band_split`` (j from ``frexp``, c = chi(|s|/2^j) from one chi call) is the
one evaluation of beta.  ``dyadic_bump`` reads one band from it through ``band_share``;
``band_stack`` places each point's two shares of beta^2 power, c^2 power in band 2^j and
(1 - c)^2 power in band 2^(j+1), in one scatter over the bands covering the points: the one
reduction of both X-norm layouts.  ``frexp`` and ``ldexp`` are exact, so the weights equal
chi(s/n) - chi(2s/n) bit for bit.
"""
from __future__ import annotations

import numpy as np


def smooth_step(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1, exp(-1/t) glue between."""
    # clamped to [0, 1]; + 0.0 turns -0.0 into 0.0, whose -1/t would be +inf
    t = np.minimum(np.maximum(np.asarray(t, dtype=float), 0.0), 1.0) + 0.0
    with np.errstate(divide="ignore", over="ignore"):  # exp(-1/t) = exp(-inf) = 0 at the ends
        a, b = np.exp(-1.0 / t), np.exp(-1.0 / (1.0 - t))
    return (a / (a + b))[()]


def chi(s):
    """Even smooth cutoff: 1 on [-1, 1], 0 outside (-2, 2)."""
    return smooth_step(2.0 - np.abs(s))


def validate_dyadic(value, name="index"):
    if not (value >= 1 and np.frexp(value)[0] == 0.5):
        raise ValueError(f"{name} must be a power of two >= 1, got {value}")


def dyadic_bump(n, s):
    """Dyadic band bump beta_n at the finite point(s) s: beta_1 = chi, supported in |s| <= 2;
    for n > 1, beta_n(s) = chi(s/n) - chi(2 s/n), supported in n/2 <= |s| <= 2 n."""
    validate_dyadic(n, "band index")
    s = np.asarray(s, dtype=float)
    if not np.isfinite(s).all():
        raise ValueError(f"beta_{n} of a non-finite point {s[~np.isfinite(s)][0]}")
    j, c = band_split(s)
    return band_share(j, int(n).bit_length() - 1, c, 1.0 - c)[()]


def band_split(s):
    """(j, c): s has weight c in band 2^j and 1 - c in band 2^(j+1), and none elsewhere.
    s must be finite (inf would land in band 2, nan in band 1): its callers check that."""
    a = np.abs(np.asarray(s, dtype=float))
    j = np.maximum(np.frexp(a)[1] - 1, 0)
    return j, chi(np.ldexp(a, -j))


def band_share(j, k, lower, upper):
    """Band 2^k's share of a split: ``lower`` where j == k, ``upper`` where j == k - 1, else 0."""
    return np.where(j == k, lower, np.where(j == k - 1, upper, 0.0))


def band_stack(lam, power):
    """(bands, S): the bands L covering max|lam| and the (bands x points) stack of each point's
    beta_L(lam)^2 power.  One scatter puts c^2 power in row j and (1 - c)^2 power in row j + 1
    of the point's ``band_split``; the zero row past the top band is dropped.  A non-finite lam
    raises ValueError."""
    l_list = covering_indices(float(np.max(np.abs(lam), initial=1.0)))
    j, c = band_split(lam)
    stack = np.zeros((len(l_list) + 1, j.size))
    points = np.arange(j.size)
    stack[j, points] = c * c * power
    stack[j + 1, points] = (1.0 - c) * (1.0 - c) * power
    return l_list, stack[:-1]


def covering_indices(max_abs):
    """Dyadic indices 1, 2, ..., N_top whose bumps cover all |s| <= max_abs exactly.

    The partial sum of bumps up to N_top equals 1 on |s| <= N_top, so
    N_top is the first dyadic >= max_abs, which must be finite.
    """
    if not np.isfinite(max_abs):
        raise ValueError(f"no dyadic cover of a non-finite bound {max_abs}")
    out = [1]
    while out[-1] < max_abs:
        out.append(2 * out[-1])
    return out
