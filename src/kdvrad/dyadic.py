"""Littlewood-Paley frequency blocks, modulation blocks and the X-type norms.

P_N restricts to the dyadic frequency band |xi| ~ N via the smooth bumps of
:mod:`kdvrad.bumps`; Q_L restricts the space-time transform to the dyadic
modulation band |tau - xi^3| ~ L.  The X norm is the l1-over-modulation,
L2-in-spacetime combination sum_L L^(1/2) ||Q_L v||, and the xbar^s norm
replaces the N = 1 block by the maximal-in-time L_x^2 L_t^inf norm.

Every X norm is one reduction, M_L = sum of the shares beta_L(lam)^2 power of
``bumps.band_shares``, in one of two layouts: on the tau x xi plane ``modulation_masses`` sums
over tau (each xi >= 0 column with its multiplicity), ``bilinear.WavePacketField.x_norm`` over
the cells of each cloud row; ``x_sum`` adds L^(1/2) (M_L weight)^(1/2) in order of L for both.
Each cell lies in two dyadic bands, so one chi per cell (``bumps.band_split``) gives both of
its weights, for the modulation and the frequency bands alike; the projections'
``dyadic_bump`` reads the same split.  The N = 1 block of ``xbar_norm`` is a multiplier in xi
alone, applied to the field's tapered half rows before ``spacetime_transform`` builds the
plane: no tau round trip.

``xbar_norm`` streams the plane through ``modulation_masses`` in blocks of xi columns, so the
one complex transform is its only plane-sized array.  Whole-plane float temporaries (lam,
power, the band split, the shares: 387 KiB each at 384 x 129) went back to the OS after
every call and were faulted in again by the next: 3,300-4,100 minor page faults, at 3.1-3.4 us
each on a 2-vCPU x86_64 VM, in the three calls of a dyadic_probes claim.  Blocks of at most
``BLOCK_BYTES``, under glibc's 128 KiB mmap threshold, reuse heap memory (0-360 faults).  The
blocks' M is the plane's bit for bit: a column's tau sum (row order) does not depend on the
other columns, and a block's band list is a prefix of the plane's, the bands past it summing
to exact zeros.  No block is one column wide: numpy sums a (rows, 1) block pairwise, not in
row order, which changes the last bits.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .bumps import (band_share, band_shares, band_split, covering_indices, dyadic_bump,
                    validate_dyadic)
from .errors import TimeWindowTooShortError
from .gevrey import hs_norm
from .grid import SpectralField
from .spacetime import (SpacetimeField, SpacetimeSpectrum, airy_spacetime,
                        inverse_spacetime_transform, spacetime_transform)

#: coarsest tau spacing able to resolve the L = 1 modulation band
MAX_DTAU = 2.0

#: bytes of one float column block of the (tau x xi) plane in ``xbar_norm``
BLOCK_BYTES = 96 * 1024


def project_pn(field: SpectralField, n) -> SpectralField:
    """Frequency block P_n: multiply the coefficients by beta_n(xi)."""
    return SpectralField(field.grid, field.half * dyadic_bump(n, field.grid.xi))


def _check_dtau(spec: SpacetimeSpectrum):
    if spec.dtau > MAX_DTAU:
        raise TimeWindowTooShortError(
            f"time window too short: tau bin {spec.dtau:.3g} > {MAX_DTAU} "
            "cannot resolve the L = 1 modulation band"
        )


def project_ql(field: SpacetimeField, l) -> SpacetimeField:
    """Modulation block Q_l of the tapered field."""
    validate_dyadic(l, "modulation band")
    spec = spacetime_transform(field)
    _check_dtau(spec)
    return inverse_spacetime_transform(
        replace(spec, values=spec.values * dyadic_bump(l, spec.modulation())))


def modulation_masses(lam, power):
    """(bands, M): M_L = sum over the first (tau) axis of the plane of beta_L(lam)^2 power, for
    the bands L covering max|lam|, one band at a time.  A non-finite lam raises ValueError.
    ``xbar_norm`` passes one block of xi columns at a time (module docstring): a block two or
    more columns wide sums each column in row order, so its M is those columns of the plane's."""
    l_list, shares = band_shares(lam, power)
    return l_list, np.array([np.sum(share, axis=0) for share in shares])


def _column_blocks(rows, cols):
    """Near-equal slices of at most max(4, BLOCK_BYTES / (8 rows)) of ``cols`` columns.  A width
    of at least 4 keeps every block at least 2 wide (unless cols is 1)."""
    count = -(-cols // max(4, BLOCK_BYTES // (8 * rows)))
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


def xbar_norm(field: SpacetimeField, s: float) -> NormReport:
    """xbar^s norm: maximal-in-time low block plus N^s-weighted X blocks; s must be finite."""
    if not np.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    g = field.grid
    n_list = covering_indices(g.xi[-1])
    j, c = band_split(g.xi)
    betas = np.array([band_share(j, n.bit_length() - 1, c, 1.0 - c) for n in n_list])
    # L_x^2 L_t^inf of the low block: P_1 acts on xi alone, so on the tapered half rows,
    # freed before the modulation plane (the peak of the call) is built
    u1 = g.half_to_values(field.tapered() * betas[0])
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


def free_evolution_norm_ratio(f: SpectralField, s: float,
                              num_time_samples: int = 160) -> float:
    """||chi(t) S(t) f||_{xbar^s} / ||f||_{H^s} on the discrete time window [-2, 2].

    Measures the empirical constant of the free-evolution energy estimate.
    """
    denom = hs_norm(f, s)
    if denom == 0.0:
        raise ValueError("field must be nonzero")
    st = airy_spacetime(f, -2.0, 2.0, num_time_samples)
    return xbar_norm(st, s).xbar_s / denom
