"""Littlewood-Paley frequency blocks, modulation blocks and the X-type norms.

P_N restricts to the dyadic frequency band |xi| ~ N via the smooth bumps of
:mod:`kdvrad.bumps`; Q_L restricts the space-time transform to the dyadic
modulation band |tau - xi^3| ~ L.  The X norm is the l1-over-modulation,
L2-in-spacetime combination sum_L L^(1/2) ||Q_L v||, and the xbar^s norm
replaces the N = 1 block by the maximal-in-time L_x^2 L_t^inf norm.

Every X norm is one reduction, M_L = sum of beta_L(lam)^2 power, in one of two layouts, both
on ``bumps.band_stack`` (one chi per point gives its two band shares, one scatter places them);
``x_sum`` adds L^(1/2) (M_L weight)^(1/2) in order of L for both.  ``spacetime_transform``
demodulates the rows, so on the (lam x xi) plane the modulation is the lam grid alone:
``xbar_norm`` stacks the (bands x rows) matrix B of beta_L(lam)^2 on every call, with no cache,
and takes M_L(xi) = B @ power.  ``bilinear.WavePacketField.x_norm`` sums the stack of its cells
over each cloud row.  The N = 1 block of ``xbar_norm`` is a multiplier in xi alone, applied to
the tapered half rows the spectrum was taken of.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .bumps import band_share, band_split, band_stack, covering_indices
from .errors import TimeWindowTooShortError
from .solver import Trajectory
from .spacetime import spacetime_transform

#: coarsest lam spacing able to resolve the L = 1 modulation band
MAX_DTAU = 2.0


def x_sum(l_list, masses, weight):
    """sum_L L^(1/2) (M_L weight)^(1/2), added in order of L; one value per column of M."""
    total = 0.0
    for l, m in zip(l_list, masses):
        total = total + np.sqrt(l) * np.sqrt(m * weight)
    return total


@dataclass
class NormReport:
    """Per-block decomposition of the xbar^s norm.  ``nyquist_share`` is the real Nyquist
    column's share of the tapered rows' L^2 mass: that column aliases in lam, so it is left out
    of the N >= 2 blocks.  ``truncated_l`` lists the modulation bands that reach past
    max|lam| = pi/dt."""

    s: float
    x_norm_per_n: dict
    low_freq_maximal: float
    xbar_s: float
    nyquist_share: float
    truncated_l: list = dc_field(default_factory=list)

    def reconstruction_defect(self) -> float:
        """|xbar_s^2 - the sum xbar_s was built from| / xbar_s^2: round-off on any ``xbar_norm``
        report, so it catches a report edited afterwards, not a wrong block norm."""
        total = self.low_freq_maximal ** 2
        total += sum(n ** (2 * self.s) * v ** 2
                     for n, v in self.x_norm_per_n.items() if n > 1)
        return abs(total - self.xbar_s ** 2) / max(self.xbar_s ** 2, 1e-300)


def xbar_norm(field: Trajectory, s: float) -> NormReport:
    """xbar^s norm: maximal-in-time low block plus N^s-weighted X blocks; s must be finite.
    The real Nyquist column, which aliases in lam, is left out of the X blocks and its share of
    the tapered rows' L^2 mass reported."""
    if not np.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    spec = spacetime_transform(field)
    if spec.dlam > MAX_DTAU:
        raise TimeWindowTooShortError(
            f"time window too short: lam bin {spec.dlam:.3g} > {MAX_DTAU} "
            "cannot resolve the L = 1 modulation band")
    g = field.grid
    n_list = covering_indices(g.xi[-1])
    j, c = band_split(g.xi)
    betas = np.array([band_share(j, n.bit_length() - 1, c, 1.0 - c) for n in n_list])
    l_list, bands = band_stack(spec.lam, 1.0)
    masses = (bands @ spec.power())[:, :-1]  # without the Nyquist column
    x_high = x_sum(l_list, masses @ (betas[1:, :-1] ** 2).T, spec.weight)
    # L_x^2 L_t^inf of the low block: P_1 acts on xi alone, so on the tapered half rows
    u1 = g.half_to_values(spec.tapered * betas[0])
    low = float(np.sqrt(np.sum(np.max(np.abs(u1), axis=0) ** 2) * g.dx))
    mass = np.abs(spec.tapered) ** 2 * g.half_weight
    nyquist = float(np.sum(mass[:, -1]) / max(np.sum(mass), 1e-300))
    x_per_n = {1: low, **{n: float(v) for n, v in zip(n_list[1:], x_high)}}
    xbar = np.sqrt(low ** 2 + sum(n ** (2 * s) * v ** 2
                                  for n, v in x_per_n.items() if n > 1))
    # bands reaching past max|lam| are cut off by the lam grid
    lam_max = float(np.max(np.abs(spec.lam)))
    return NormReport(s=s, x_norm_per_n=x_per_n, low_freq_maximal=low, xbar_s=float(xbar),
                      nyquist_share=nyquist, truncated_l=[l for l in l_list if 2 * l > lam_max])
