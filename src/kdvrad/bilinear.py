"""Empirical verification of the dyadic space-time bilinear estimates.

Probes are sparse clouds of Fourier-cell amplitudes at (xi, tau) lattice points, interpreted
as piecewise-constant densities on cells of size dxi x dtau; norms carry the Lebesgue cell
weights, so measured ratios approximate their continuum counterparts.  Pointwise products
become exact coherent convolutions of the clouds.  A ``WavePacketField`` is a stack of clouds:
flat cell arrays holding one cloud (row) after another, row r ending at ``ends[r]``, and a
single cloud is one row.  ``product`` multiplies stacks row by row, and every norm gives one
value per row, bitwise the row's value as a cloud alone.

The block probe (``measure_block_ratio``) and the X-norm product probe
(``xnorm_product_ratio``) share one sampler core: a draw loop (``_max_ratio``) that takes the
tube-pair parameters of every trial from one seeded stream (``_coherent_pair``), as many draws
at a time as trials are still needed, then one evaluation: every trial's tubes as one stack
(``_tube``), one ``product`` call and the norms, a ratio per trial.  The tubes carry unit
amplitudes, so ``product`` counts the pairs landing in each output cell rather than summing
their weights, and ``modulation`` cubes each lattice column once, not each cell: both give the
bits of the per-pair sum and the per-cell cube.  The thin frequency tubes keep the spread of the
resonance 3 xi1 xi2 xi3 below one tau cell, so they resolve the modulation scale at large N,
where a dense grid cannot, and sample the operator norm from below.  The probes differ only in
where they put (xi1, xi2).  The targeted draws of a batch run through the geometry as float64
arrays, a row per draw, with the bits of the per-draw float loop kept in the tests: sums and
walks along a row are sequential accumulates, each row's cuts are sorted with +inf padding, and
the cube-root cut is Python's ``**`` per element.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .bumps import band_stack, dyadic_bump, validate_dyadic
from .dyadic import x_sum
from .errors import UnresolvableBandError, VanishingConfigurationError

TWO_PI = 2.0 * np.pi
TINY = np.finfo(float).tiny

#: practical resolution caps for probe construction
MAX_BAND = 4096
MAX_MODULATION = 2 ** 26
DEFAULT_DTAU = 0.5

#: dyadic comparability factor implementing "~"
COMPARABLE_FACTOR = 4.0


def _band(n, floor, lo=0.5, hi=2.0):
    """[lo n, hi n], from ``floor`` for n = 1.  The defaults span the support of
    beta_n, (0.75, 1.5) the range where beta_n >= 1/2."""
    return (floor, hi) if n == 1 else (lo * n, hi * n)


def _equal_rows(ends):
    return np.array_equal(ends, ends[0] * np.arange(1, len(ends) + 1))


def _row_sums(x, ends):
    """np.sum over the last axis of each row's cells, rows ending at ``ends``; rows last.
    Rows of equal length (every tube stack) take one reshaped sum, bitwise the same."""
    if _equal_rows(ends):
        return x.reshape(*x.shape[:-1], len(ends), ends[0]).sum(-1)
    return np.stack([np.sum(x[..., a:b], -1) for a, b in zip([0, *ends[:-1]], ends)], -1)


def _band_masses(lam, power, ends):
    """(bands, M): M_L per row of the cells' beta_L(lam)^2 power, the row sums of their
    ``band_stack``."""
    l_list, stack = band_stack(lam, power)
    return l_list, _row_sums(stack, ends)


@dataclass
class WavePacketField:
    """Sparse space-time Fourier amplitude clouds, one row after another: row r holds the
    cells from ``ends[r - 1]`` (or 0) to ``ends[r]``, spaced ``dxi[r]``; by default one row."""

    xi_index: np.ndarray
    tau: np.ndarray
    amp: np.ndarray
    dxi: np.ndarray
    dtau: float
    ends: np.ndarray | None = None

    def __post_init__(self):
        self.xi_index = np.asarray(self.xi_index, dtype=np.int64)
        self.tau = np.asarray(self.tau, dtype=np.float64)
        self.amp = np.asarray(self.amp, dtype=np.complex128)
        self.dxi = np.asarray(self.dxi, dtype=np.float64).reshape(-1)
        self.ends = np.asarray([self.amp.size] if self.ends is None else self.ends, np.int64)
        lengths = self.ends.copy()
        lengths[1:] -= self.ends[:-1]
        self._cell_dxi = np.repeat(self.dxi, lengths)

    @property
    def xi(self) -> np.ndarray:
        return self.xi_index * self._cell_dxi

    @property
    def modulation(self) -> np.ndarray:
        """tau - xi^3, one cube per run of bitwise equal xi: rows are xi-major, so a tube row
        holds 5 runs and a product row about 9."""
        xi = self.xi
        bits = xi.view(np.int64)
        first = np.ones(xi.size, dtype=bool)
        first[1:] = bits[1:] != bits[:-1]
        first = np.flatnonzero(first)
        return self.tau - np.repeat(xi[first] ** 3, np.diff(first, append=xi.size))

    @property
    def cell_weight(self) -> np.ndarray:
        return self.dxi * self.dtau / TWO_PI ** 2

    def l2_norm(self) -> np.ndarray:
        return np.sqrt(_row_sums(np.abs(self.amp) ** 2, self.ends) * self.cell_weight)

    def x_norm(self) -> np.ndarray:
        """sum_L L^(1/2) ||Q_L .|| over the bands covering every row: a band beyond a row's
        own cover holds exactly 0 of its mass and adds exactly 0."""
        return x_sum(*_band_masses(self.modulation, np.abs(self.amp) ** 2, self.ends),
                     self.cell_weight)

    def band_l2_norm(self, n, l) -> np.ndarray:
        """||P_n Q_l .|| with the smooth bumps."""
        wgt = dyadic_bump(n, self.xi) * dyadic_bump(l, self.modulation)
        return np.sqrt(_row_sums(np.abs(wgt * self.amp) ** 2, self.ends) * self.cell_weight)


def product(u: WavePacketField, v: WavePacketField) -> WavePacketField:
    """Pointwise product in physical space = coherent cloud convolution, row by row.

    The rows of each operand must have one length (every tube stack, every single cloud), and
    every tau must be finite, else ValueError; an operand without cells gives rows without
    cells.  A pair's key is its output cell (xi_u + xi_v, round((tau_u + tau_v) / dtau)) in
    its row's xi-major box, past the previous rows' boxes, so one bincount serves every row;
    row r of the result holds the cells, values and order of the product of the rows r alone.
    The boxes come from the operands' row extrema, with no pass over the pairs: xi extrema add
    exactly, and as the float sum, the division and round-half-even are monotone, the rounded
    sums of the tau extrema are the extreme tau bins.  The keys (tau sums divided and rounded
    in one float64 buffer, cast once to int64) are the only pair-grid array on the count path.

    Every pair adds amp_u amp_v w (w the row's cell weight) to its output cell, in input order
    from 0.  Where every amplitude is exactly 1 (every tube stack) and w is finite, the cells
    are counted instead: a cell reached by c pairs holds entry c of the running sum 0, w,
    w + w, ... of its row's w, the bits of the weighted sum.
    """
    if len(u.dxi) != len(v.dxi) or np.any(u.dxi != v.dxi) or u.dtau != v.dtau:
        raise ValueError("operands live on different cell lattices")
    for name, f in (("u", u), ("v", v)):
        if not _equal_rows(f.ends):
            raise ValueError("product takes rows of one length, got row lengths "
                             f"{np.diff(f.ends, prepend=0).tolist()}")
        if (bad := np.flatnonzero(~np.isfinite(f.tau))).size:
            row, cell = divmod(int(bad[0]), int(f.ends[0]))
            raise ValueError(f"operand {name} has tau = {f.tau[bad[0]]} in row {row}, cell {cell}")
    rows = len(u.ends)
    if u.amp.size == 0 or v.amp.size == 0:
        return WavePacketField([], [], [], u.dxi, u.dtau, np.zeros(rows, dtype=np.int64))
    (xu, tu, au), (xv, tv, av) = ([a.reshape(rows, -1) for a in (f.xi_index, f.tau, f.amp)]
                                  for f in (u, v))
    (xmin, xmax), (tlo, thi) = ((a.min(1) + b.min(1), a.max(1) + b.max(1))
                                for a, b in ((xu, xv), (tu, tv)))
    tmin, tmax = np.sort(np.rint(np.array([tlo, thi]) / u.dtau), 0).astype(np.int64)
    span = tmax - tmin + 1
    n_keys = (xmax - xmin + 1) * span  # each row's box, of which the keys may use less
    start = np.cumsum(n_keys) - n_keys
    key = np.add(tu[:, :, None], tv[:, None, :])
    key /= u.dtau
    key = np.rint(key, out=np.empty(key.shape, np.int64), casting="unsafe")
    key += (xu * span[:, None] + (start - tmin - xmin * span)[:, None])[:, :, None]
    key += (xv * span[:, None])[:, None, :]
    key = key.ravel()
    # compact clouds (tubes): count every key, no sort; where the boxes are too loose to
    # tell, the rows' actual key ranges decide
    if (n_keys.sum() <= 4 * key.size
            or (key.reshape(rows, -1).max(axis=1) - start + 1).sum() <= 4 * key.size):
        counts = np.bincount(key)
        uniq = np.flatnonzero(counts)
        index, occupied, counts = key, uniq, counts[uniq]
    else:
        uniq, index, counts = np.unique(key, return_inverse=True, return_counts=True)
        occupied = slice(None)
    row = np.searchsorted(start, uniq, side="right") - 1
    weight = u.cell_weight[:, None]
    acc = np.zeros(uniq.size, dtype=np.complex128)
    if np.isfinite(weight).all() and (au == 1).all() and (av == 1).all():
        sums = np.zeros((rows, counts.max() + 1))
        sums[:, 1:] = weight
        acc.real = np.cumsum(sums, axis=1)[row, counts]
    else:
        amp3 = (au[:, :, None] * av[:, None, :]).reshape(rows, -1) * weight
        acc.real = np.bincount(index, weights=amp3.real.ravel())[occupied]
        acc.imag = np.bincount(index, weights=amp3.imag.ravel())[occupied]
    xi_out, tau_bin = np.divmod(uniq - start[row], span[row])
    return WavePacketField(xi_out + xmin[row], (tau_bin + tmin[row]).astype(np.float64) * u.dtau,
                           acc, u.dxi, u.dtau, np.cumsum(np.bincount(row, minlength=rows)))


def _lam_centers(l):
    """Cell-center modulations filling the band of Q_l (one sign for l > 1)."""
    lo, hi = _band(l, -2.0)
    cells = min(16, int(np.ceil((hi - lo) / DEFAULT_DTAU)))  # every band spans >= 6 cells
    return np.linspace(lo + DEFAULT_DTAU / 2, hi - DEFAULT_DTAU / 2, cells)


def _tube(xi_lo, lam_values, dxi):
    """Stack of unit-amplitude tubes, a row per entry of xi_lo and dxi: 5 lattice points from
    xi_lo (every tube pair sets dxi = width / 5), each at every modulation in lam_values
    (tau = lam + xi^3)."""
    idx = np.round(xi_lo[:, None] / dxi[:, None]).astype(np.int64) + np.arange(5)
    tau = lam_values + ((idx * dxi[:, None]) ** 3)[:, :, None]
    return WavePacketField(np.repeat(idx, lam_values.size), tau.ravel(),
                           np.ones(tau.size, dtype=complex), dxi, DEFAULT_DTAU,
                           tau[0].size * np.arange(1, len(idx) + 1))


def _validate_bands(n, l):
    for value, what, symbol, cap in ((n, "frequency band", "N", MAX_BAND),
                                     (l, "modulation band", "L", MAX_MODULATION)):
        validate_dyadic(value, what)
        if value > cap:
            raise UnresolvableBandError(f"{what} {symbol} = {value} exceeds the configured cap {cap}")


@dataclass(frozen=True)
class DyadicTriple:
    """Frequency and modulation bands of one bilinear block estimate."""

    n1: float
    n2: float
    n3: float
    l1: float
    l2: float
    l3: float

    def __post_init__(self):
        for name in ("n1", "n2", "n3", "l1", "l2", "l3"):
            validate_dyadic(getattr(self, name), name)

    @property
    def n_sorted(self):
        return tuple(sorted((self.n1, self.n2, self.n3)))

    @property
    def l_sorted(self):
        return tuple(sorted((self.l1, self.l2, self.l3)))

    def _comparable(self, a, b):
        return max(a, b) <= COMPARABLE_FACTOR * min(a, b)

    def _failed_support_condition(self) -> str | None:
        """The factor-4 "~" condition the triple fails, or None."""
        n_min, n_med, n_max = self.n_sorted
        l_min, l_med, l_max = self.l_sorted
        top = max(n_min * n_max ** 2, l_med)
        if not self._comparable(n_max, n_med):
            return f"N_max = {n_max:g} is not ~ N_med = {n_med:g}"
        if not self._comparable(l_max, top):
            return f"L_max = {l_max:g} is not ~ max(N_min N_max^2, L_med) = {top:g}"
        return None

    def satisfies_support_conditions(self) -> bool:
        return self._failed_support_condition() is None

    @property
    def regime(self) -> str:
        """Case of the block-constant formula.

        "balanced": all frequencies comparable and the top modulation sits at
        the resonance size N_min N_max^2.  "low-peak": the low frequency is
        separated and its own modulation carries the dominant resonance-size
        band.  "generic": every other admissible configuration.
        """
        if failed := self._failed_support_condition():
            raise VanishingConfigurationError(
                f"support condition fails for {self}: {failed} (\"~\" within a factor "
                f"{COMPARABLE_FACTOR:g}), so no block constant is predicted")
        n_min, n_med, n_max = self.n_sorted
        l_min, l_med, l_max = self.l_sorted
        resonance = n_min * n_max ** 2
        # strict at the boundary: a factor-4 frequency separation counts as
        # separated for classification (support conditions stay inclusive)
        if n_max < COMPARABLE_FACTOR * n_min and self._comparable(l_max, resonance):
            return "balanced"
        ns = (self.n1, self.n2, self.n3)
        ls = (self.l1, self.l2, self.l3)
        low_slot = int(np.argmin(ns))
        if ns[low_slot] * COMPARABLE_FACTOR < n_max:
            l_low = ls[low_slot]
            if l_low == l_max and self._comparable(l_low, resonance):
                return "low-peak"
        return "generic"


def predicted_block_constant(triple: DyadicTriple) -> float:
    """Block-constant formula for the triple's regime (normalization 1)."""
    regime = triple.regime  # raises where the support conditions fail
    n_min, n_med, n_max = triple.n_sorted
    l_min, l_med, l_max = triple.l_sorted
    if regime == "balanced":
        return n_max ** -0.25 * l_min ** 0.5 * l_med ** 0.25
    if regime == "low-peak":
        return n_max ** -1.0 * l_min ** 0.5 \
            * min(n_min * n_max ** 2, (n_max / n_min) * l_med) ** 0.5
    return n_max ** -1.0 * l_min ** 0.5 * min(n_min * n_max ** 2, l_med) ** 0.5


@dataclass(frozen=True)
class RatioRecord:
    """Outcome of one block measurement: ``trials`` admissible trials performed, always the
    number requested, and the ``attempts`` (parameter draws) spent on them, inadmissible ones
    included."""

    triple: DyadicTriple
    measured_lhs: float
    predicted_c: float
    ratio: float
    trials: int
    attempts: int


#: parameter draws allowed per requested trial before a probe counts as unresolvable
MAX_ATTEMPTS_PER_TRIAL = 64


def _max_ratio(draw, ratios, lams, trials, seed, probe):
    """(max of ``ratios(u, v)`` over exactly ``trials`` admissible tube pairs, draws spent).

    ``draw(rng, count)`` takes ``count`` draws from the one seeded stream and returns the
    parameter rows of the admissible ones (see ``_coherent_pair``), in stream order.  Taking
    only as many as are still needed, the draws keep the first ``trials`` admissible ones, so a
    run with more trials extends the run with fewer.  After MAX_ATTEMPTS_PER_TRIAL * trials
    draws UnresolvableBandError reports the requested, admissible and attempted counts.  Then
    every trial's tubes, at the modulations ``lams``, are built as the stacks u and v, and
    ``ratios`` gives one ratio per trial.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    pairs, attempts, budget = [], 0, MAX_ATTEMPTS_PER_TRIAL * trials
    while len(pairs) < trials:
        if attempts == budget:
            raise UnresolvableBandError(
                f"no admissible probe pair for {probe}: {len(pairs)} of {trials} "
                f"requested trials admissible after {attempts} attempts")
        count = min(trials - len(pairs), budget - attempts)
        attempts += count
        pairs.extend(draw(rng, count))
    lo1, lo2, dxi = np.array(pairs).T
    values = ratios(_tube(lo1, lams[0], dxi), _tube(lo2, lams[1], dxi))
    return max(0.0, *map(float, values)), attempts


def _coherent_pair(xi1, xi2, band1, band2):
    """(xi_lo1, xi_lo2, dxi): the tubes centred on xi1 and xi2 whose product stays coherent,
    elementwise over arrays or numbers.

    The width keeps both the linear and the quadratic spread of the
    resonance along the output fiber below one tau cell, and a quarter of
    either band.  Needs x3 = |xi1 + xi2| > 0.  A fiber slope under the smallest normal float
    (xi1 = xi2) counts as that float, whose linear bound (2e307) binds no more than inf.
    """
    x3 = abs(xi1 + xi2)
    slope = 2.0 * (3.0 * x3 * abs(xi2 - xi1))
    delta = np.minimum(DEFAULT_DTAU / np.maximum(slope, TINY), np.sqrt(DEFAULT_DTAU / (6.0 * x3)))
    delta = np.minimum(delta, min(band1[1] - band1[0], band2[1] - band2[0]) / 4.0)
    return xi1 - delta / 2, xi2 - delta / 2, delta / 5.0


def _resonance_range(band1, band2, xi3, signs):
    """[min, max] of H = 3 xi1 xi2 xi3 over xi_k in sign_k * band_k, xi3 = xi1 + xi2.

    The domain is a rectangle cut by a strip, a convex polygon, and H has no critical point in
    it (only at 0), so the extremes sit at its vertices or at the critical points of H along
    its edges (xi2 = -xi1 / 2 on xi1 = const, xi1 = -xi2 / 2 on xi2 = const, xi1 = xi2 on
    xi3 = const).  Returns None when the polygon is empty.
    """
    (a1, b1), (a2, b2), (c, d) = (sorted((sg * lo, sg * hi)) for sg, (lo, hi)
                                  in zip(signs, (band1, band2, xi3)))
    points = [(e1, e2) for e1 in (a1, b1) for e2 in (a2, b2)]
    points += [(e1, s - e1) for e1 in (a1, b1) for s in (c, d)]
    points += [(s - e2, e2) for e2 in (a2, b2) for s in (c, d)]
    points += [(e1, -e1 / 2.0) for e1 in (a1, b1)]
    points += [(-e2 / 2.0, e2) for e2 in (a2, b2)]
    points += [(s / 2.0, s / 2.0) for s in (c, d)]
    tol = 1e-12 * max(abs(b1), abs(b2), abs(d))
    h = [3.0 * z1 * z2 * (z1 + z2) for z1, z2 in points if a1 - tol <= z1 <= b1 + tol
         and a2 - tol <= z2 <= b2 + tol and c - tol <= z1 + z2 <= d + tol]
    return (min(h), max(h)) if h else None


def _reachable_lam3(band1, band2, xi3, lam3, lam_in):
    """Disjoint signed lam3 intervals, |lam3| in lam3, reached by some |xi3| in xi3."""
    pieces = []
    for signs in itertools.product((1.0, -1.0), repeat=3):
        h = _resonance_range(band1, band2, xi3, signs)
        if h is None:
            continue
        lo, hi = lam_in - h[1], lam_in - h[0]  # lam3 = lam1 + lam2 - H
        for a, b in ((lam3[0], lam3[1]), (-lam3[1], -lam3[0])):
            if min(hi, b) > max(lo, a):
                pieces.append((max(lo, a), min(hi, b)))
    merged = []
    for a, b in sorted(pieces):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def _pick(slots, frac):
    """Point at fraction ``frac`` of each row's disjoint intervals, held as (lower, upper,
    weight) along the last axis of ``slots``: (rows, slots, 3), or (slots, 3) shared by every
    row.  Slots of weight 0 are skipped, and a row without an interval gives its first slot.

    The total and the walk along a row are sequential (``np.add.accumulate``,
    ``np.subtract.accumulate``), and a walk past the last interval ends in it, so each point has
    the bits of the loop over the row's intervals (the reference in the tests)."""
    slots = np.broadcast_to(slots, (frac.size, *np.shape(slots)[-2:]))
    weights = slots[..., 2]
    pos = frac * np.add.accumulate(weights, -1)[:, -1]
    left = np.subtract.accumulate(np.column_stack([pos, weights]), -1)
    held = weights > 0
    stop = held & (left[:, :-1] <= weights)
    past = ~stop.any(-1)
    rows = np.arange(frac.size)
    i = np.where(past, np.argmax(np.cumsum(held, -1), -1), np.argmax(stop, -1))
    a, b, w = slots[rows, i].T
    # past the last held slot, only zeros are taken off
    return np.minimum(a + (b - a) * left[rows, i + past] / np.where(w > 0, w, 1.0), b)


def _resonance_roots(x3, h, band1, band2):
    """(xi1, xi2, ok) elementwise: xi1 + xi2 = x3 and 3 xi1 xi2 x3 = h, each in its band where
    ``ok``.  Needs x3 > 0, so the root ``big`` is positive."""
    disc = x3 * x3 - 4.0 * h / (3.0 * x3)
    big = (x3 + np.sqrt(np.maximum(disc, 0.0))) / 2.0
    small = h / (3.0 * x3 * big)  # the other root, free of cancellation
    size = np.abs(small)
    fits = [(band1[0] <= z1) & (z1 <= band1[1]) & (band2[0] <= z2) & (z2 <= band2[1])
            for z1, z2 in ((big, size), (size, big))]
    return (np.where(fits[0], big, small), np.where(fits[0], small, big),
            (disc >= 0) & (fits[0] | fits[1]))


def _admissible_xi3(big_h, band1, band2, xi3, edge_terms):
    """For each entry of ``big_h``, the signed xi3 intervals, |xi3| in xi3, on which both roots
    fit their bands: (rows, 36, 3) slots of (lower, upper, length) in increasing order, the
    slots between them of length 0.

    Mirroring xi -> -xi flips the resonance, so xi3 < 0 is solved as |xi3|
    with h = -H.  The admissible set can only change where a root crosses a
    band edge e, i.e. at the roots x3 of 3 e x3 (x3 - e) = h, or where the
    two roots merge (x3^3 = 4 h / 3); each piece between cuts is tested once.
    ``edge_terms`` holds that quadratic's terms (9 e^4, 12 e, 3 e^2, 6 e) for each signed edge.
    The 19 cuts of a row and sign (lo, hi, the merge point, two per edge) are sorted with +inf
    in place of those that do not exist or fall outside [lo, hi].  The merge point takes
    Python's ``**`` per element: numpy's vectorised power sets other last bits.
    """
    lo, hi = xi3
    h = np.stack([-big_h, big_h], -1)[..., None]  # (rows, sign3 = -1 and +1, 1)
    nine_e4, twelve_e, three_e2, six_e = np.array(edge_terms).T
    disc = nine_e4 + twelve_e * h
    root = np.sqrt(np.where(disc >= 0, disc, np.inf))  # no edge cut: both cuts infinite
    merge = np.full(h.shape, np.inf)
    merge[h > 0] = [q ** (1.0 / 3.0) for q in (4.0 * h[h > 0] / 3.0).tolist()]
    cuts = np.concatenate([np.broadcast_to([lo, hi], (*h.shape[:2], 2)), merge,
                           (three_e2 + root) / six_e, (three_e2 - root) / six_e], -1)
    cuts[(cuts < lo) | (cuts > hi)] = np.inf
    cuts.sort(-1)
    a, b = cuts[..., :-1], cuts[..., 1:]
    fits = (b > a) & (b <= hi)
    fits &= _resonance_roots(np.where(fits, (a + b) / 2.0, lo), h, band1, band2)[2]
    a, b = np.where(fits, a, lo), np.where(fits, b, lo)
    lower = np.concatenate([-b[:, 0, ::-1], a[:, 1]], -1)
    upper = np.concatenate([-a[:, 0, ::-1], b[:, 1]], -1)
    return np.stack([lower, upper, upper - lower], -1)


#: lam3 histogram bins per reachable interval
LAM3_BINS = 8


@lru_cache(maxsize=64)
def _tube_targets(triple: DyadicTriple) -> MappingProxyType:
    """Per-triple constants of the tube-pair construction, built once per triple, read-only.

    ``xi3`` is the |xi3| range the output is aimed at: where beta_N3 and beta_L3 are both at
    least 1/2 when the resonance can reach that, else their whole supports.  ``lam3`` splits
    the reachable signed lam3 into bins weighted (``lam3_weights``) by the admissible xi3
    length at their centres, so the draws are close to uniform on the admissible (lam3, xi3)
    region.  ``lam_in`` = lam1 + lam2 of the middle input cells: with a cell pair rather than
    the means, the output cloud has a cell at the aimed lam3.
    """
    lam1, lam2 = _lam_centers(triple.l1), _lam_centers(triple.l2)
    lam_in = float(lam1[lam1.size // 2] + lam2[lam2.size // 2])
    band1, band2 = _band(triple.n1, 0.1), _band(triple.n2, 0.1)
    edge_terms = tuple((9.0 * e ** 4, 12.0 * e, 3.0 * e ** 2, 6.0 * e)
                       for edge in (*band1, *band2) for e in (edge, -edge))
    for scale in ((0.75, 1.5), (0.5, 2.0)):  # half height, then the supports
        xi3 = _band(triple.n3, 0.1, *scale)
        reach = _reachable_lam3(band1, band2, xi3, _band(triple.l3, 0.0, *scale), lam_in)
        if reach:
            break
    edges = np.linspace(*np.reshape(reach, (-1, 2)).T, LAM3_BINS + 1, axis=-1)
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    pieces = _admissible_xi3(lam_in - (lo + hi) / 2.0, band1, band2, xi3, edge_terms)
    length = np.add.accumulate(pieces[..., 2], -1)[:, -1]
    keep = length > 0
    lam1.flags.writeable = lam2.flags.writeable = False
    return MappingProxyType({"band1": band1, "band2": band2, "edge_terms": edge_terms, "xi3": xi3,
                             "lam3": tuple(zip(lo[keep].tolist(), hi[keep].tolist())),
                             "lam3_weights": tuple(((hi - lo) * length)[keep].tolist()),
                             "lam1": lam1, "lam2": lam2, "lam_in": lam_in})


def _targeted_tube_pairs(tg: dict, fracs):
    """(k, 3): the parameters of the tube pairs whose products land coherently where the output
    bumps peak, one per admissible row of ``fracs``, in order.

    lam3 is drawn (at ``fracs[:, 0]``) from the reachable part of the target range (see
    ``_tube_targets``), then xi3 (at ``fracs[:, 1]``) from the signed pieces of the target |xi3|
    range on which the resonance lam1 + lam2 - lam3 = 3 xi1 xi2 xi3 has its two roots
    (xi1, xi2) inside the N1 and N2 bands, so every draw is admissible unless nothing is
    reachable or it rounds off a cut.
    """
    if not tg["lam3"]:
        return np.empty((0, 3))
    band1, band2 = tg["band1"], tg["band2"]
    big_h = tg["lam_in"] - _pick(np.column_stack([tg["lam3"], tg["lam3_weights"]]), fracs[:, 0])
    pieces = _admissible_xi3(big_h, band1, band2, tg["xi3"], tg["edge_terms"])
    xi3 = _pick(pieces, fracs[:, 1])
    sign3 = np.where(xi3 > 0, 1.0, -1.0)
    xi1, xi2, ok = _resonance_roots(np.abs(xi3), sign3 * big_h, band1, band2)
    ok &= pieces[..., 2].any(-1)
    return np.column_stack(_coherent_pair(sign3[ok] * xi1[ok], sign3[ok] * xi2[ok], band1, band2))


def measure_block_ratio(triple: DyadicTriple, trials: int = 32,
                        seed: int = 0) -> RatioRecord:
    """Max over trials of ||P_N3 Q_L3 (u1 u2)|| / (C_pred ||u1|| ||u2||).

    Exactly ``trials`` admissible trials are performed (see ``_max_ratio``), two uniforms per
    tube draw, a batch's from one ``rng.random((count, 2))``.  The uniforms are fractions of the
    target ranges, not absolute positions, so an N-sweep with one seed reuses the same trial
    family at every N (common random numbers), which keeps the max over trials a smooth function
    of N.  See ``_targeted_tube_pairs`` for where the output is aimed.

    A triple that fails a factor-4 "~" support condition raises VanishingConfigurationError
    (from ``predicted_block_constant``), naming the condition: no constant is predicted to
    measure against.  The block need not vanish there: "~" is tighter than the bump supports.
    """
    for n, l in ((triple.n1, triple.l1), (triple.n2, triple.l2), (triple.n3, triple.l3)):
        _validate_bands(n, l)
    c = predicted_block_constant(triple)
    targets = _tube_targets(triple)

    def ratios(u, v):
        return product(u, v).band_l2_norm(triple.n3, triple.l3) / (u.l2_norm() * v.l2_norm())

    best, attempts = _max_ratio(lambda rng, count: _targeted_tube_pairs(targets,
                                                                         rng.random((count, 2))),
                                ratios, (targets["lam1"], targets["lam2"]), trials, seed,
                                triple)
    return RatioRecord(triple, best, c, best / c, trials, attempts)


def _xnorm_tube_pair(bands, rng):
    """Parameters of a coherent tube pair for the X-norm ratio, output anywhere in band 3.

    xi3 across band 3 with a random sign, then xi1 at the stationary point xi3 / 2, jittered
    within the quadratic coherence scale, with probability 0.7 when both input bands hold it,
    else uniform in band 1 with a random sign.  None when xi2 = xi3 - xi1 leaves band 2.  Four
    generator calls per draw: ``uniform(a, b)`` is the generator's a + (b - a) u, and a sign
    from ``integers(2)`` is the draw of ``rng.choice((-1.0, 1.0))``, about 4x cheaper.
    """
    (lo1, hi1), (lo2, hi2), (lo3, hi3) = bands
    xi3 = lo3 + (0.05 + (0.95 - 0.05) * rng.random()) * (hi3 - lo3)
    sign3 = (-1.0, 1.0)[rng.integers(2)]
    stationary, jitter, xi1_frac = rng.random(3).tolist()
    sign1 = (-1.0, 1.0)[rng.integers(2)]
    if stationary < 0.7 and lo1 <= xi3 / 2 <= hi1 and lo2 <= xi3 / 2 <= hi2:
        xi1 = xi3 / 2 + (-1.0 + 2.0 * jitter) * math.sqrt(DEFAULT_DTAU / (3.0 * xi3))
    else:
        xi1 = (lo1 + (0.1 + (0.9 - 0.1) * xi1_frac) * (hi1 - lo1)) * sign1
    xi2 = xi3 - xi1
    if not (lo1 <= abs(xi1) <= hi1 and lo2 <= abs(xi2) <= hi2):
        return None
    return _coherent_pair(sign3 * xi1, sign3 * xi2, bands[0], bands[1])


def xnorm_product_ratio(n1, n2, n3, trials: int = 32, seed: int = 0) -> float:
    """Max over trials of ||Lambda^-1 P_N3 d_x(u v)||_X / (||u||_X ||v||_X).

    Lambda^-1 is the nonsingular inverse modulation weight 1/(i + tau - xi^3).
    Exactly ``trials`` admissible trials are performed (see ``_max_ratio``).
    Trial parameters are dimensionless band fractions, so sweeps over N reuse
    identical trial families when given the same seed.
    """
    for n in (n1, n2, n3):
        _validate_bands(n, 1)
    bands = [_band(n, 0.1) for n in (n1, n2, n3)]

    def ratios(u, v):
        w = product(u, v)
        xi, lam = w.xi, w.modulation
        power = np.abs(w.amp * (1j * xi) * dyadic_bump(n3, xi) / (1j + lam)) ** 2
        # the rows of u, then of v, as one stack: one x_norm pass
        uv = WavePacketField(*(np.concatenate([getattr(u, k), getattr(v, k)])
                               for k in ("xi_index", "tau", "amp", "dxi")),
                             u.dtau, np.concatenate([u.ends, u.ends[-1] + v.ends])).x_norm()
        return (x_sum(*_band_masses(lam, power, w.ends), w.cell_weight)
                / (uv[:len(u.ends)] * uv[len(u.ends):]))

    lam = _lam_centers(1)
    return _max_ratio(lambda rng, count: filter(None, (_xnorm_tube_pair(bands, rng)
                                                       for _ in range(count))),
                      ratios, (lam, lam), trials, seed, f"bands ({n1}, {n2}, {n3})")[0]


def fit_exponent(ns, values):
    """Least-squares slope of log(values) against log(ns); every band index and value must be
    positive and finite, and at least two of the ns distinct."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if ns.shape != values.shape:
        raise ValueError(f"{ns.size} band indices but {values.size} values")
    if (distinct := np.unique(ns).size) < 2:
        raise ValueError(f"a slope needs at least 2 distinct band indices, got {distinct}")
    for what, a in (("band index", ns), ("value", values)):
        bad = np.flatnonzero(~(np.isfinite(a) & (a > 0)))
        if bad.size:
            i = bad[0]
            raise ValueError(f"{what} {a[i]} at index {i} (n = {ns[i]:g}) has no finite log")
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])
