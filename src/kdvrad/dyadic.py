"""Littlewood-Paley frequency blocks, modulation blocks and the X-type norms.

P_N restricts to the dyadic frequency band |xi| ~ N via the smooth bumps of
:mod:`kdvrad.bumps`; Q_L restricts the space-time transform to the dyadic
modulation band |tau - xi^3| ~ L.  The X norm is the l1-over-modulation,
L2-in-spacetime combination sum_L L^(1/2) ||Q_L v||, and the xbar^s norm
replaces the N = 1 block by the maximal-in-time L_x^2 L_t^inf norm.

Every X norm is one reduction, M_L = sum of beta_L(lam)^2 power, in one of two layouts: on the
tau x xi plane ``modulation_masses`` sums over tau (each xi >= 0 column with its multiplicity),
``bilinear.WavePacketField.x_norm`` over the cells of each cloud row; ``x_sum`` adds
L^(1/2) (M_L weight)^(1/2) in order of L for both.  Each cell lies in two dyadic bands, so one
chi per cell (``bumps.band_shares``) gives both of its shares, and one scatter places them:
no pass is made per band.  The N = 1 block of ``xbar_norm`` is a multiplier in xi alone,
applied to the field's tapered half rows before ``spacetime_transform`` builds the plane.
``xbar_norm`` streams the plane through ``modulation_masses`` in blocks of xi columns of at
most ``BLOCK_BYTES``, so the one complex transform is its only plane-sized array; a column's
tau sum does not depend on the other columns, so any blocking gives the plane's bits.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .bumps import band_share, band_shares, band_split, covering_indices
from .errors import TimeWindowTooShortError
from .solver import Trajectory
from .spacetime import SpacetimeSpectrum, spacetime_transform, tapered

#: coarsest tau spacing able to resolve the L = 1 modulation band
MAX_DTAU = 2.0

#: bytes of one float column block of the (tau x xi) plane in ``xbar_norm``
BLOCK_BYTES = 96 * 1024


def _check_dtau(spec: SpacetimeSpectrum):
    if spec.dtau > MAX_DTAU:
        raise TimeWindowTooShortError(
            f"time window too short: tau bin {spec.dtau:.3g} > {MAX_DTAU} "
            "cannot resolve the L = 1 modulation band"
        )


def modulation_masses(lam, power):
    """(bands, M): M_L = sum over the tau rows of a (tau x xi) block of beta_L(lam)^2 power, for
    the bands L covering max|lam|.  One bincount over the keys (j, column) and (j + 1, column),
    interleaved in row-major order, adds each bucket's cells in row order: the bits of a column
    sum per band.  The bucket row past the top band is dropped; it holds exact zeros.  A
    non-finite lam raises ValueError."""
    l_list, j, lower, upper = band_shares(lam, power)
    cols = lam.shape[1]
    keys = np.empty(lam.shape + (2,), dtype=np.intp)
    np.add(j * cols, np.arange(cols), out=keys[..., 0])
    np.add(keys[..., 0], cols, out=keys[..., 1])
    m = np.bincount(keys.ravel(), np.stack([lower, upper], -1).ravel(),
                    (len(l_list) + 1) * cols)
    return l_list, m[:len(l_list) * cols].reshape(-1, cols)


def _column_blocks(rows, cols):
    """Near-equal slices of at most max(1, BLOCK_BYTES / (8 rows)) of ``cols`` columns."""
    count = -(-cols // max(1, BLOCK_BYTES // (8 * rows)))
    edges = [cols * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def x_sum(l_list, masses, weight):
    """sum_L L^(1/2) (M_L weight)^(1/2), added in order of L; one value per column of M."""
    total = 0.0
    for l, m in zip(l_list, masses):
        total = total + np.sqrt(l) * np.sqrt(m * weight)
    return total


@dataclass
class NormReport:
    """Per-block decomposition of the xbar^s norm."""

    s: float
    x_norm_per_n: dict
    low_freq_maximal: float
    xbar_s: float
    truncated_l: list = dc_field(default_factory=list)

    def reconstruction_defect(self) -> float:
        """|xbar_s^2 - the sum xbar_s was built from| / xbar_s^2: round-off on any ``xbar_norm``
        report, so it catches a report edited afterwards, not a wrong block norm."""
        total = self.low_freq_maximal ** 2
        total += sum(n ** (2 * self.s) * v ** 2
                     for n, v in self.x_norm_per_n.items() if n > 1)
        return abs(total - self.xbar_s ** 2) / max(self.xbar_s ** 2, 1e-300)


def xbar_norm(field: Trajectory, s: float) -> NormReport:
    """xbar^s norm: maximal-in-time low block plus N^s-weighted X blocks; s must be finite."""
    if not np.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    g = field.grid
    n_list = covering_indices(g.xi[-1])
    j, c = band_split(g.xi)
    betas = np.array([band_share(j, n.bit_length() - 1, c, 1.0 - c) for n in n_list])
    # L_x^2 L_t^inf of the low block: P_1 acts on xi alone, so on the tapered half rows,
    # freed before the modulation plane (the peak of the call) is built
    u1 = g.half_to_values(tapered(field) * betas[0])
    low = float(np.sqrt(np.sum(np.max(np.abs(u1), axis=0) ** 2) * g.dx))
    del u1
    spec = spacetime_transform(field)
    _check_dtau(spec)
    blocks = _column_blocks(*spec.values.shape)
    parts = [modulation_masses(spec.modulation(cols), spec.power(cols)) for cols in blocks]
    l_list = max((bands for bands, _ in parts), key=len)
    masses = np.zeros((len(l_list), spec.xi.size))
    for cols, (bands, m) in zip(blocks, parts):
        masses[:len(bands), cols] = m
    x_high = x_sum(l_list, masses @ (betas[1:] * betas[1:]).T, spec.weight)
    x_per_n = {1: low, **{n: float(v) for n, v in zip(n_list[1:], x_high)}}
    xbar = np.sqrt(low ** 2 + sum(n ** (2 * s) * v ** 2
                                  for n, v in x_per_n.items() if n > 1))
    # bands reaching past max|tau| are cut off by the tau grid
    tau_max = float(np.max(np.abs(spec.tau)))
    truncated = [l for l in l_list if 2 * l > tau_max]
    return NormReport(s=s, x_norm_per_n=x_per_n, low_freq_maximal=low,
                      xbar_s=float(xbar), truncated_l=truncated)
