"""Empirical verification of the dyadic space-time bilinear estimates.

Probes are sparse clouds of Fourier-cell amplitudes at (xi, tau) lattice
points, interpreted as piecewise-constant densities on cells of size
dxi x dtau; norms carry the Lebesgue cell weights, so measured ratios
approximate their continuum counterparts.  Pointwise products become exact
coherent convolutions of the clouds.

Measuring the predicted block constants requires resolving the resonance
function 3 xi1 xi2 xi3 of the cubic characteristic down to the modulation
scale: a dense grid cannot afford that at large N, but near-extremal wave
packets (thin frequency tubes whose resonance spread stays below one tau
cell) can, which is how the exponent sweeps sample the operator norm from
below.  Coarse full-band probes ("box" geometry) measure the lattice
surrogate instead, whose constants are genuinely different; they are kept
for support and boundedness checks, not for exponent regressions.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .bumps import dyadic_bump, is_dyadic, validate_dyadic
from .dyadic import modulation_norms
from .errors import UnresolvableBandError, VanishingConfigurationError

TWO_PI = 2.0 * np.pi

#: practical resolution caps for probe construction
MAX_BAND = 4096
MAX_MODULATION = 2 ** 26
DEFAULT_DTAU = 0.5

#: dyadic comparability factor implementing "~"
COMPARABLE_FACTOR = 4.0


@dataclass
class WavePacketField:
    """Sparse space-time Fourier amplitude cloud."""

    xi_index: np.ndarray
    tau: np.ndarray
    amp: np.ndarray
    dxi: float
    dtau: float

    def __post_init__(self):
        self.xi_index = np.asarray(self.xi_index, dtype=np.int64)
        self.tau = np.asarray(self.tau, dtype=np.float64)
        self.amp = np.asarray(self.amp, dtype=np.complex128)

    @property
    def xi(self) -> np.ndarray:
        return self.xi_index * self.dxi

    @property
    def modulation(self) -> np.ndarray:
        return self.tau - self.xi ** 3

    @property
    def cell_weight(self) -> float:
        return self.dxi * self.dtau / TWO_PI ** 2

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amp) ** 2) * self.cell_weight))

    def x_norm(self) -> float:
        """sum_L L^(1/2) ||Q_L .|| over all bands carrying amplitude."""
        norms = modulation_norms(self.modulation, np.abs(self.amp) ** 2, self.cell_weight)
        return float(sum(np.sqrt(l) * v for l, v in norms.items()))

    def band_l2_norm(self, n, l) -> float:
        """||P_n Q_l .|| with the smooth bumps."""
        wgt = dyadic_bump(n, self.xi) * dyadic_bump(l, self.modulation)
        return float(np.sqrt(np.sum(np.abs(wgt * self.amp) ** 2) * self.cell_weight))

    def support_mass_fraction(self, n, l) -> float:
        """Fraction of squared mass inside {|xi| in [n/2, 2n], |lam| in [l/2, 2l]}."""
        xi = np.abs(self.xi)
        lam = np.abs(self.modulation)
        in_xi = (xi <= 2.0) if n == 1 else ((xi >= n / 2.0) & (xi <= 2.0 * n))
        in_lam = (lam <= 2.0) if l == 1 else ((lam >= l / 2.0) & (lam <= 2.0 * l))
        power = np.abs(self.amp) ** 2
        total = np.sum(power)
        if total == 0:
            return 0.0
        return float(np.sum(power[in_xi & in_lam]) / total)


def product(u: WavePacketField, v: WavePacketField) -> WavePacketField:
    """Pointwise product in physical space = coherent cloud convolution."""
    if u.dxi != v.dxi or u.dtau != v.dtau:
        raise ValueError("operands live on different cell lattices")
    xi3 = (u.xi_index[:, None] + v.xi_index[None, :]).ravel()
    tau3 = (u.tau[:, None] + v.tau[None, :]).ravel()
    amp3 = (u.amp[:, None] * v.amp[None, :]).ravel() * (u.dxi * u.dtau / TWO_PI ** 2)
    tbin = np.round(tau3 / u.dtau).astype(np.int64)
    xmin, tmin = xi3.min(), tbin.min()
    span = int(tbin.max() - tmin) + 1
    key = (xi3 - xmin) * span + (tbin - tmin)
    uniq, inverse = np.unique(key, return_inverse=True)
    acc = np.zeros(uniq.size, dtype=np.complex128)
    np.add.at(acc, inverse, amp3)
    xi_out = uniq // span + xmin
    tau_out = (uniq % span + tmin).astype(np.float64) * u.dtau
    return WavePacketField(xi_out, tau_out, acc, u.dxi, u.dtau)


def _lam_centers(l, dtau, cells=None):
    """Cell-center modulations filling the band of Q_l (one sign for l > 1)."""
    if l == 1:
        lo, hi = -2.0, 2.0
    else:
        lo, hi = l / 2.0, 2.0 * l
    cells = cells or max(4, min(16, int(np.ceil((hi - lo) / dtau))))
    return np.linspace(lo + dtau / 2, hi - dtau / 2, cells) \
        if hi - lo > dtau else np.array([(lo + hi) / 2])


def _tube(xi_lo, width, lam_values, dxi, dtau, amp=1.0):
    ni = max(2, int(round(width / dxi)))
    i0 = int(round(xi_lo / dxi))
    idx = i0 + np.arange(ni)
    xi_grid, lam_grid = np.meshgrid(idx, lam_values, indexing="ij")
    xi = xi_grid.ravel() * dxi
    tau = lam_grid.ravel() + xi ** 3
    a = np.full(xi.size, amp, dtype=complex)
    return WavePacketField(xi_grid.ravel(), tau, a, dxi, dtau)


def _validate_bands(n, l, dtau):
    validate_dyadic(n, "frequency band")
    validate_dyadic(l, "modulation band")
    if n > MAX_BAND:
        raise UnresolvableBandError(
            f"frequency band N = {n} exceeds the configured cap {MAX_BAND}")
    if l > MAX_MODULATION:
        raise UnresolvableBandError(
            f"modulation band L = {l} exceeds the configured cap {MAX_MODULATION}")
    if dtau > 2.0:
        raise UnresolvableBandError(
            f"tau cell {dtau} cannot resolve the L = 1 modulation band")


def make_localized(n, l, seed, geometry: str = "box",
                   dtau: float = DEFAULT_DTAU) -> WavePacketField:
    """Random-phase probe supported in the dyadic box (N band x L band).

    geometry "box" fills the box on a capped lattice; "tube" concentrates on
    a random thin frequency interval inside the band.  Deterministic per
    seed; at least 99 % of the squared mass sits in the box by construction.
    """
    _validate_bands(n, l, dtau)
    rng = np.random.default_rng(seed)
    if geometry == "box":
        lo, hi = (0.0, 2.0) if n == 1 else (n / 2.0, 2.0 * n)
        cells = 48
        dxi = (hi - lo) / cells if n > 1 else 2.0 / cells
        sign = rng.choice((-1.0, 1.0))
        centers = lo + dxi * (np.arange(cells) + 0.5)
        idx = np.round(sign * centers / dxi).astype(np.int64)
        lam = _lam_centers(l, dtau)
        xi_grid, lam_grid = np.meshgrid(idx, lam, indexing="ij")
        xi = xi_grid.ravel() * dxi
        tau = lam_grid.ravel() + xi ** 3
        amp = rng.standard_normal(xi.size) + 1j * rng.standard_normal(xi.size)
        return WavePacketField(xi_grid.ravel(), tau, amp, dxi, dtau)
    if geometry == "tube":
        lo, hi = (0.1, 2.0) if n == 1 else (n / 2.0, 2.0 * n)
        width = (hi - lo) * 2.0 ** rng.uniform(-6.0, -2.0)
        pos = rng.uniform(lo, hi - width) * rng.choice((-1.0, 1.0))
        dxi = width / 6.0
        lam = _lam_centers(l, dtau)
        return _tube(pos, width, lam, dxi, dtau,
                     amp=np.exp(1j * rng.uniform(0, TWO_PI)))
    raise ValueError(f"unknown geometry {geometry!r}")


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
            value = getattr(self, name)
            if not is_dyadic(value) or value < 1:
                raise ValueError(f"{name} must be a dyadic index >= 1, got {value}")

    @property
    def n_sorted(self):
        return tuple(sorted((self.n1, self.n2, self.n3)))

    @property
    def l_sorted(self):
        return tuple(sorted((self.l1, self.l2, self.l3)))

    def _comparable(self, a, b):
        return max(a, b) <= COMPARABLE_FACTOR * min(a, b)

    def satisfies_support_conditions(self) -> bool:
        n_min, n_med, n_max = self.n_sorted
        l_min, l_med, l_max = self.l_sorted
        if not self._comparable(n_max, n_med):
            return False
        return self._comparable(l_max, max(n_min * n_max ** 2, l_med))

    @property
    def regime(self) -> str:
        """Case of the block-constant formula.

        "balanced": all frequencies comparable and the top modulation sits at
        the resonance size N_min N_max^2.  "low-peak": the low frequency is
        separated and its own modulation carries the dominant resonance-size
        band.  "generic": every other admissible configuration.
        """
        if not self.satisfies_support_conditions():
            raise VanishingConfigurationError(
                f"support conditions fail for {self}: the block vanishes")
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
    regime = triple.regime  # raises on vanishing configurations
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
    triple: DyadicTriple
    measured_lhs: float
    rhs_product: float
    predicted_c: float
    ratio: float
    trials: int


def _solve_resonance_position(a, h_target):
    """b > 0 with 3 a b (a + b) = h_target."""
    disc = 9.0 * a ** 4 + 12.0 * a * h_target
    return (-3.0 * a ** 2 + np.sqrt(disc)) / (6.0 * a)


def _band_interval(n):
    return (0.1, 2.0) if n == 1 else (n / 2.0, 2.0 * n)


def _draw_block_params(rng):
    """Dimensionless tube-pair parameters, a fixed number of draws per trial.

    Sampling band fractions rather than absolute positions lets an N-sweep
    reuse identical trial parameters across its points (common random
    numbers), which keeps the max-over-trials a smooth function of N.
    """
    return {
        "a_frac": rng.uniform(0.1, 0.9),
        "c_target": rng.uniform(0.9, 1.15),
        "sign3": float(rng.choice((-1.0, 1.0))),
        "scale": 2.0 ** rng.uniform(-0.7, 0.7),
    }


def _targeted_tube_pair(triple: DyadicTriple, params, dtau):
    """Tube pair whose product lands coherently inside the output block.

    Positions are solved from the resonance 3 xi1 xi2 xi3 so the output
    modulation falls in the L3 band; widths stay below the coherence scale
    along the output fiber (both the linear and the quadratic spread must
    stay below one tau cell).  Returns None when inadmissible.
    """
    lo1, hi1 = _band_interval(triple.n1)
    lo2, hi2 = _band_interval(triple.n2)
    lo3, hi3 = _band_interval(triple.n3)
    lam1 = _lam_centers(triple.l1, dtau)
    lam2 = _lam_centers(triple.l2, dtau)
    lam3_c = 0.0 if triple.l3 == 1 else float(triple.l3)
    lam1_c = float(np.mean(lam1))
    lam2_c = float(np.mean(lam2))
    # lam3 = lam1 + lam2 - 3 xi1 xi2 xi3: aim the resonance into the L3 band
    h_target = lam1_c + lam2_c - params["sign3"] * params["c_target"] * lam3_c
    a = lo1 + params["a_frac"] * (hi1 - lo1)
    flip = 1.0
    if abs(h_target) < 0.5:
        # all-low-band configuration: any small resonance is admissible
        h_target = params["sign3"] * (0.5 + params["c_target"])
    if h_target < 0:
        flip = -1.0  # mirrored tubes flip the resonance sign
        h_target = -h_target
    b = _solve_resonance_position(a, h_target)
    if not (lo2 <= b <= hi2 and lo3 <= a + b <= hi3):
        return None
    xi3 = a + b
    fiber_slope = 3.0 * xi3 * abs(b - a)
    delta_lin = dtau / (2.0 * fiber_slope) if fiber_slope > 0 else np.inf
    delta_quad = np.sqrt(dtau / (6.0 * xi3))
    delta = params["scale"] * min(delta_lin, delta_quad,
                                  (hi1 - lo1) / 4.0, (hi2 - lo2) / 4.0)
    dxi = delta / 5.0
    u = _tube(flip * a - (delta / 2 if flip < 0 else 0), delta, flip * lam1,
              dxi, dtau)
    v = _tube(flip * b - (delta / 2 if flip < 0 else 0), delta, flip * lam2,
              dxi, dtau)
    return u, v


def measure_block_ratio(triple: DyadicTriple, trials: int = 32, seed: int = 0,
                        dtau: float = DEFAULT_DTAU,
                        geometry: str = "tube") -> RatioRecord:
    """Max over trials of ||P_N3 Q_L3 (u1 u2)|| / (C_pred ||u1|| ||u2||).

    For configurations violating the support conditions the product block is
    identically zero and the record carries measured_lhs = 0 with the raw
    ratio (predicted_c set to nan).
    """
    for n, l in ((triple.n1, triple.l1), (triple.n2, triple.l2),
                 (triple.n3, triple.l3)):
        _validate_bands(n, l, dtau)
    rng = np.random.default_rng(seed)
    vanishing = not triple.satisfies_support_conditions()
    best_raw = 0.0
    performed = 0
    for _ in range(trials):
        if geometry == "box" or vanishing:
            u = make_localized(triple.n1, triple.l1, rng.integers(2 ** 31),
                               geometry="box", dtau=dtau)
            v = make_localized(triple.n2, triple.l2, rng.integers(2 ** 31),
                               geometry="box", dtau=dtau)
        else:
            pair = _targeted_tube_pair(triple, _draw_block_params(rng), dtau)
            if pair is None:
                continue
            u, v = pair
        w = product(u, v)
        lhs = w.band_l2_norm(triple.n3, triple.l3)
        denom = u.l2_norm() * v.l2_norm()
        if denom > 0:
            best_raw = max(best_raw, lhs / denom)
        performed += 1
    if performed == 0:
        raise UnresolvableBandError(
            f"no admissible probe positions found for {triple}")
    if vanishing:
        return RatioRecord(triple, best_raw, 1.0, float("nan"), best_raw, performed)
    c = predicted_block_constant(triple)
    return RatioRecord(triple, best_raw, 1.0, c, best_raw / c, performed)


def _draw_xnorm_params(rng):
    """Dimensionless parameters for one X-norm ratio trial (fixed draw count)."""
    return {
        "xi3_frac": rng.uniform(0.05, 0.95),
        "sign3": float(rng.choice((-1.0, 1.0))),
        "prefer_stationary": float(rng.uniform()) < 0.7,
        "jitter": rng.uniform(-1.0, 1.0),
        "xi1_frac": rng.uniform(0.1, 0.9),
        "sign1": float(rng.choice((-1.0, 1.0))),
        "scale": 2.0 ** rng.uniform(-0.7, 0.7),
    }


def _xnorm_tube_pair(n1, n2, n3, params, dtau):
    """Tube pair for the smoothed-product X-norm ratio; output anywhere in N3."""
    lo1, hi1 = _band_interval(n1)
    lo2, hi2 = _band_interval(n2)
    lo3, hi3 = _band_interval(n3)
    sign3 = params["sign3"]
    xi3 = lo3 + params["xi3_frac"] * (hi3 - lo3)
    stationary = lo1 <= xi3 / 2 <= hi1 and lo2 <= xi3 / 2 <= hi2
    if stationary and params["prefer_stationary"]:
        delta_quad = np.sqrt(dtau / (3.0 * xi3))
        xi1 = xi3 / 2 + params["jitter"] * delta_quad
    else:
        xi1 = (lo1 + params["xi1_frac"] * (hi1 - lo1)) * params["sign1"]
    xi2 = xi3 - xi1
    if not (lo1 <= abs(xi1) <= hi1 and lo2 <= abs(xi2) <= hi2):
        return None
    fiber_slope = 3.0 * xi3 * abs(xi2 - xi1)
    delta_lin = dtau / (2.0 * fiber_slope) if fiber_slope > 0 else np.inf
    delta_quad = np.sqrt(dtau / (6.0 * xi3))
    delta = params["scale"] * min(delta_lin, delta_quad,
                                  (hi1 - lo1) / 4.0, (hi2 - lo2) / 4.0)
    dxi = delta / 5.0
    lam = _lam_centers(1, dtau)
    u = _tube(sign3 * xi1 - (delta if sign3 * xi1 < 0 else 0), delta, lam,
              dxi, dtau)
    v = _tube(sign3 * xi2 - (delta if sign3 * xi2 < 0 else 0), delta, lam,
              dxi, dtau)
    return u, v


def xnorm_product_ratio(n1, n2, n3, trials: int = 32, seed: int = 0,
                        dtau: float = DEFAULT_DTAU) -> float:
    """Max over trials of ||Lambda^-1 P_N3 d_x(u v)||_X / (||u||_X ||v||_X).

    Lambda^-1 is the nonsingular inverse modulation weight 1/(i + tau - xi^3).
    Trial parameters are dimensionless band fractions, so sweeps over N reuse
    identical trial families when given the same seed.
    """
    for n in (n1, n2, n3):
        _validate_bands(n, 1, dtau)
    rng = np.random.default_rng(seed)
    best = 0.0
    performed = 0
    for _ in range(trials):
        pair = _xnorm_tube_pair(n1, n2, n3, _draw_xnorm_params(rng), dtau)
        if pair is None:
            continue
        u, v = pair
        w = product(u, v)
        if w.amp.size == 0:
            performed += 1
            continue
        amp = w.amp * (1j * w.xi) * dyadic_bump(n3, w.xi) / (1j + w.modulation)
        f = WavePacketField(w.xi_index, w.tau, amp, w.dxi, w.dtau)
        denom = u.x_norm() * v.x_norm()
        if denom > 0:
            best = max(best, f.x_norm() / denom)
        performed += 1
    if performed == 0:
        raise UnresolvableBandError(
            f"no admissible probe positions for bands ({n1}, {n2}, {n3})")
    return best


def fit_exponent(ns, values):
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    return float(np.polyfit(np.log(ns), np.log(values), 1)[0])


def sweep_to_csv(records, fitted_exponent, path):
    header = ["N1", "N2", "N3", "L1", "L2", "L3", "regime", "predicted_C",
              "max_ratio", "trials", "fitted_exponent"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in records:
            t = r.triple
            regime = t.regime if t.satisfies_support_conditions() else "vanishing"
            writer.writerow([t.n1, t.n2, t.n3, t.l1, t.l2, t.l3, regime,
                             repr(r.predicted_c), repr(r.measured_lhs),
                             r.trials, repr(fitted_exponent)])
    return header
