"""Littlewood-Paley frequency blocks, modulation blocks and the X-type norms.

P_N restricts to the dyadic frequency band |xi| ~ N via the smooth bumps of
:mod:`kdvrad.bumps`; Q_L restricts the space-time transform to the dyadic
modulation band |tau - xi^3| ~ L.  The X norm is the l1-over-modulation,
L2-in-spacetime combination sum_L L^(1/2) ||Q_L v||, and the xbar^s norm
replaces the N = 1 block by the maximal-in-time L_x^2 L_t^inf norm.

Band sums telescope beta_L = chi(lam/L) - chi(lam/(L/2)), one chi per scale, bitwise equal
to ``dyadic_bump`` as L/2 is a power of two.  ``xbar_norm`` reduces M[L, xi] =
sum_tau beta_L^2 |v|^2 once; block N is sum_L L^(1/2) (M beta_N^2 weight)^(1/2).
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .bumps import covering_indices, dyadic_bands, dyadic_bump, validate_dyadic
from .errors import TimeWindowTooShortError
from .gevrey import hs_norm
from .grid import SpectralField, apply_multiplier
from .spacetime import (SpacetimeField, SpacetimeSpectrum, airy_spacetime,
                        inverse_spacetime_transform, spacetime_transform)

#: coarsest tau spacing able to resolve the L = 1 modulation band
MAX_DTAU = 2.0


def project_pn(field: SpectralField, n) -> SpectralField:
    """Frequency block P_n: multiply the coefficients by beta_n(xi)."""
    validate_dyadic(n, "frequency band")
    return apply_multiplier(field, lambda xi: dyadic_bump(n, xi))


def _check_dtau(spec: SpacetimeSpectrum):
    if spec.dtau > MAX_DTAU:
        raise TimeWindowTooShortError(
            f"time window too short: tau bin {spec.dtau:.3g} > {MAX_DTAU} "
            "cannot resolve the L = 1 modulation band"
        )


def _covering_modulations(lam):
    return covering_indices(float(np.max(np.abs(lam), initial=1.0)))


def modulation_blocks(spec: SpacetimeSpectrum):
    """Dyadic L indices covering every |tau - xi^3| present on the grid."""
    return _covering_modulations(spec.modulation())


def resolvable_blocks(spec: SpacetimeSpectrum):
    """L indices whose band [L/2, 2L] lies inside the covered tau range.

    Bands beyond max|tau - xi^3| resolvable on the grid are truncated from
    norm sums; the split is reported by xbar_norm rather than hidden.
    """
    tau_max = float(np.max(np.abs(spec.tau)))
    return [l for l in modulation_blocks(spec) if 2 * l <= tau_max]


def project_ql(field: SpacetimeField, l, pad: int = 4) -> SpacetimeField:
    """Modulation block Q_l of the tapered field."""
    validate_dyadic(l, "modulation band")
    spec = spacetime_transform(field, pad=pad)
    _check_dtau(spec)
    filtered = SpacetimeSpectrum(
        values=spec.values * dyadic_bump(l, spec.modulation()),
        tau=spec.tau, xi=spec.xi, dtau=spec.dtau, dxi=spec.dxi, field=spec.field,
    )
    return inverse_spacetime_transform(filtered)


def modulation_norms(lam, power, weight, l_list=None) -> dict:
    """||Q_l .|| per band l (default: all covering max|lam|) from cell powers and weight."""
    l_list = _covering_modulations(lam) if l_list is None else l_list
    return {l: float(np.sqrt(np.sum(wgt * wgt * power) * weight))
            for l, wgt in dyadic_bands(l_list, lam)}


def block_l2_norms(spec: SpacetimeSpectrum, l_list=None) -> dict:
    """||Q_l u|| for each modulation band, computed spectrally."""
    _check_dtau(spec)
    return modulation_norms(spec.modulation(), np.abs(spec.values) ** 2,
                            spec.weight, l_list)


def x_norm(field: SpacetimeField, pad: int = 4, spectrum: SpacetimeSpectrum = None) -> float:
    """sum_L L^(1/2) ||Q_L field|| over every band present on the grid."""
    spec = spectrum if spectrum is not None else spacetime_transform(field, pad=pad)
    norms = block_l2_norms(spec)
    return float(sum(np.sqrt(l) * v for l, v in norms.items()))


@dataclass
class NormReport:
    """Per-block decomposition of the xbar^s norm."""

    s: float
    x_norm_per_n: dict
    low_freq_maximal: float
    xbar_s: float
    truncated_l: list = dc_field(default_factory=list)

    def reconstruction_defect(self) -> float:
        total = self.low_freq_maximal ** 2
        total += sum(n ** (2 * self.s) * v ** 2
                     for n, v in self.x_norm_per_n.items() if n > 1)
        return abs(total - self.xbar_s ** 2) / max(self.xbar_s ** 2, 1e-300)


def xbar_norm(field: SpacetimeField, s: float, pad: int = 4) -> NormReport:
    """xbar^s norm: maximal-in-time low block plus N^s-weighted X blocks."""
    spec = spacetime_transform(field, pad=pad)
    _check_dtau(spec)
    lam = spec.modulation()
    l_list = _covering_modulations(lam)
    power = np.abs(spec.values) ** 2
    m = np.array([np.sum(wgt * wgt * power, axis=0) for _, wgt in dyadic_bands(l_list, lam)])
    sqrt_l = np.sqrt(l_list)
    x_per_n = {}
    low = 0.0
    for n, band in dyadic_bands(covering_indices(field.grid.nyquist_xi), spec.xi):
        if n == 1:
            # L_x^2 L_t^inf of the low block, evaluated in physical space
            filtered = SpacetimeSpectrum(values=spec.values * band, tau=spec.tau, xi=spec.xi,
                                         dtau=spec.dtau, dxi=spec.dxi, field=spec.field)
            u1 = inverse_spacetime_transform(filtered).values
            sup_t = np.max(np.abs(u1), axis=0)
            low = float(np.sqrt(np.sum(sup_t ** 2) * field.grid.dx))
            x_per_n[1] = low
            continue
        x_per_n[n] = float(sqrt_l @ np.sqrt(m @ (band * band) * spec.weight))
    xbar = np.sqrt(low ** 2 + sum(n ** (2 * s) * v ** 2
                                  for n, v in x_per_n.items() if n > 1))
    resolvable = resolvable_blocks(spec)
    truncated = [l for l in l_list if l not in resolvable]
    return NormReport(s=s, x_norm_per_n=x_per_n, low_freq_maximal=low,
                      xbar_s=float(xbar), truncated_l=truncated)


def free_evolution_norm_ratio(f: SpectralField, s: float,
                              window=(-2.0, 2.0), num_time_samples: int = 160) -> float:
    """||chi(t) S(t) f||_{xbar^s} / ||f||_{H^s} on the discrete window.

    Measures the empirical constant of the free-evolution energy estimate.
    """
    denom = hs_norm(f, s)
    if denom == 0.0:
        raise ValueError("field must be nonzero")
    st = airy_spacetime(f, window[0], window[1], num_time_samples)
    return xbar_norm(st, s).xbar_s / denom
