"""Smooth cutoff and dyadic bump functions.

The cutoff ``chi`` is an even C-infinity function equal to 1 on [-1, 1] and
supported in (-2, 2); the transition uses the classical exp(-1/t) glue.  The
dyadic bumps ``beta_N`` telescope into a partition of unity,

    sum_{N >= 1 dyadic} beta_N(s) = 1   for |s| <= N_top,

with the zero frequency assigned to the N = 1 block.

``dyadic_bands`` telescopes beta_n(s) = chi(s/n) - chi(s/(n/2)), one chi per scale; n/2
and 2s are exact, so s/(n/2) == 2s/n and the weights equal ``dyadic_bump`` bit for bit.
"""
from __future__ import annotations

import numpy as np


def smooth_step(t):
    """C-infinity monotone step: 0 for t <= 0, 1 for t >= 1, exp(-1/t) glue between."""
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 1.0, 1.0, np.where(np.isnan(t), np.nan, 0.0))
    ramp = (t > 0.0) & (t < 1.0)
    with np.errstate(over="ignore"):  # -1/t overflows to -inf for subnormal t
        a, b = np.exp(-1.0 / t[ramp]), np.exp(-1.0 / (1.0 - t[ramp]))
    out[ramp] = a / (a + b)
    return out[()]


def chi(s):
    """Even smooth cutoff: 1 on [-1, 1], 0 outside (-2, 2)."""
    return smooth_step(2.0 - np.abs(s))


def is_dyadic(value) -> bool:
    """True if ``value`` is a (possibly fractional) power of two."""
    if value <= 0:
        return False
    m, e = np.frexp(value)
    return m == 0.5


def validate_dyadic(value, name="index", minimum=1):
    if not is_dyadic(value) or value < minimum:
        raise ValueError(f"{name} must be a power of two >= {minimum}, got {value}")


def dyadic_bump(n, s):
    """Dyadic band bump beta_n evaluated at s.

    beta_1 = chi, supported in |s| <= 2; for n > 1,
    beta_n(s) = chi(s/n) - chi(2 s/n), supported in n/2 <= |s| <= 2 n.
    """
    validate_dyadic(n, "band index")
    s = np.asarray(s, dtype=float)
    if n == 1:
        return chi(s)
    return chi(s / n) - chi(2.0 * s / n)


def dyadic_bands(indices, s):
    """Yield (n, beta_n(s)) for dyadic n; along n, 2n, ... chi(s/n) is reused as band 2n's floor."""
    s = np.asarray(s, dtype=float)
    prev_n = prev = None
    for n in indices:
        validate_dyadic(n, "band index")
        cur = chi(s / n)
        floor = prev if prev_n == n / 2 else (chi(s / (n / 2)) if n > 1 else 0.0)
        yield n, cur - floor
        prev_n, prev = n, cur


def dyadic_indices(limit):
    """All dyadic indices 1, 2, 4, ... up to and including limit (rounded up)."""
    out = []
    n = 1
    while n <= limit:
        out.append(n)
        n *= 2
    if not out or out[-1] < limit:
        out.append(n)
    return out


def covering_indices(max_abs):
    """Dyadic indices whose bumps cover all |s| <= max_abs exactly.

    The partial sum of bumps up to N_top equals 1 on |s| <= N_top, so
    N_top is the first dyadic >= max_abs.
    """
    n_top = 1
    while n_top < max_abs:
        n_top *= 2
    return dyadic_indices(n_top)
