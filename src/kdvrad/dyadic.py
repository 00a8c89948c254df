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

The modulation tau - xi^3 of a cell depends on the window, not on the field, and so does its
band split.  ``xbar_norm`` reads each column block's ``band_cover`` from a cache keyed by
(grid, tau grid, ``BLOCK_BYTES``): the tau grid is fixed by nt and dt, and with the grid and
``BLOCK_BYTES`` it fixes the column blocks.  The cache holds the last window only, j as uint8
and c as float64, 9 bytes per plane cell (435 KiB at N = 256, nt = 96), all read-only; per
call only the shares of the field's power, their keys and the bincount are built.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .bumps import band_cover, band_share, band_shares, band_split, covering_indices
from .errors import TimeWindowTooShortError
from .grid import GridSpec
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
    the bands L covering max|lam|; lam may be given as its ``band_cover``.  One bincount over the
    keys (j, column) and (j + 1, column), interleaved in row-major order, adds each bucket's
    cells in row order: the bits of a column sum per band.  The bucket row past the top band is
    dropped; it holds exact zeros.  A non-finite lam raises ValueError."""
    l_list, j, lower, upper = band_shares(
        lam if isinstance(lam, tuple) else band_cover(lam), power)
    cols = j.shape[1]
    keys = np.empty(j.shape + (2,), dtype=np.intp)
    np.multiply(j, cols, out=keys[..., 0], dtype=np.intp)
    keys[..., 0] += np.arange(cols)
    np.add(keys[..., 0], cols, out=keys[..., 1])
    m = np.bincount(keys.ravel(), np.stack([lower, upper], -1).ravel(),
                    (len(l_list) + 1) * cols)
    return l_list, m[:len(l_list) * cols].reshape(-1, cols)


def _column_blocks(rows, cols):
    """Near-equal slices of at most max(1, BLOCK_BYTES / (8 rows)) of ``cols`` columns."""
    count = -(-cols // max(1, BLOCK_BYTES // (8 * rows)))
    edges = [cols * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


@lru_cache(maxsize=1)
def _plane_geometry(grid: GridSpec, tau: bytes, block_bytes: int) -> tuple:
    """(max|tau|, ((cols, split), ...)): the column blocks of the plane of ``grid``'s xi >= 0
    columns and the tau grid whose float64 bytes are ``tau``, each with the ``band_cover`` of
    its modulation tau - xi^3 (as ``SpacetimeSpectrum.modulation``), j stored as uint8 while
    the bands allow; read-only.  ``block_bytes`` is ``BLOCK_BYTES``, which sets the blocks."""
    tau = np.frombuffer(tau)
    layout = []
    for cols in _column_blocks(tau.size, grid.xi.size):
        l_list, j, c = band_cover(tau[:, None] - grid.xi[None, cols] ** 3)
        j = j.astype(np.min_scalar_type(len(l_list)))
        j.setflags(write=False)
        c.setflags(write=False)
        layout.append((cols, (tuple(l_list), j, c)))
    return float(np.max(np.abs(tau))), tuple(layout)


def x_sum(l_list, masses, weight):
    """sum_L L^(1/2) (M_L weight)^(1/2), added in order of L; one value per column of M."""
    total = 0.0
    for l, m in zip(l_list, masses):
        total = total + np.sqrt(l) * np.sqrt(m * weight)
    return total


@dataclass
class NormReport:
    """Per-block decomposition of the xbar^s norm.  ``truncated_l`` lists the modulation bands
    that reach past max|tau|; ``unresolved_n`` the frequency blocks N that the time sampling
    does not resolve, (2N)^3 > max|tau| = pi/dt, whose waves alias in tau."""

    s: float
    x_norm_per_n: dict
    low_freq_maximal: float
    xbar_s: float
    truncated_l: list = dc_field(default_factory=list)
    unresolved_n: list = dc_field(default_factory=list)

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
    tau_max, layout = _plane_geometry(g, spec.tau.tobytes(), BLOCK_BYTES)
    parts = [modulation_masses(split, spec.power(cols)) for cols, split in layout]
    l_list = max((bands for bands, _ in parts), key=len)
    masses = np.zeros((len(l_list), spec.xi.size))
    for (cols, _), (bands, m) in zip(layout, parts):
        masses[:len(bands), cols] = m
    x_high = x_sum(l_list, masses @ (betas[1:] * betas[1:]).T, spec.weight)
    x_per_n = {1: low, **{n: float(v) for n, v in zip(n_list[1:], x_high)}}
    xbar = np.sqrt(low ** 2 + sum(n ** (2 * s) * v ** 2
                                  for n, v in x_per_n.items() if n > 1))
    # bands reaching past max|tau| are cut off by the tau grid; blocks whose top frequency's
    # tau = xi^3 passes it alias
    return NormReport(s=s, x_norm_per_n=x_per_n, low_freq_maximal=low, xbar_s=float(xbar),
                      truncated_l=[l for l in l_list if 2 * l > tau_max],
                      unresolved_n=[n for n in n_list if (2 * n) ** 3 > tau_max])
