import math

import numpy as np
import pytest

from kdvrad.bilinear import DEFAULT_DTAU
from kdvrad.bumps import covering_indices, dyadic_bump
from kdvrad.dyadic import xbar_norm
from kdvrad.gevrey import hs_norm
from kdvrad.grid import GridSpec, SpectralField, airy_phase, forward_transform
from kdvrad.solver import Trajectory
from kdvrad.spacetime import (SpacetimeSpectrum, airy_spacetime, spacetime_transform,
                              temporal_taper)


@pytest.fixture(scope="session")
def default_grid():
    return GridSpec(1024, 40.0)


@pytest.fixture(scope="session")
def small_grid():
    return GridSpec(256, 40.0)


def random_band_field(grid, rng, max_mode=None, amplitude=1.0):
    """Random real field supported on low modes with a localized envelope."""
    n = grid.num_points
    max_mode = max_mode or n // 8
    coeffs = np.zeros(n, dtype=complex)
    mags = amplitude * rng.standard_normal(max_mode)
    phases = rng.uniform(0, 2 * np.pi, max_mode)
    for m in range(1, max_mode + 1):
        c = mags[m - 1] * np.exp(1j * phases[m - 1])
        coeffs[m] = c
        coeffs[-m] = np.conj(c)
    vals = np.real(np.fft.ifft(coeffs))
    window = np.exp(-((grid.x) / (grid.half_length / 3)) ** 2)
    return forward_transform(vals * window, grid)


def fft_order_k(grid):
    """Signed mode numbers in FFT order, Nyquist at -n/2: the layout of ``SpectralField.coeffs``."""
    return (np.fft.fftfreq(grid.num_points) * grid.num_points).astype(np.int64)


def sampled_spacetime(grid, t_a, t_b, values):
    """Trajectory of real samples values[j] at the j-th of nt uniform times on [t_a, t_b]."""
    return Trajectory(np.linspace(t_a, t_b, len(values)), SpectralField(grid, grid.to_half(values)))


def window(field):
    """(t_a, t_b, dt, taper times t_a + j dt) of a trajectory on uniform times."""
    t_a, t_b = field.times[0], field.times[-1]
    dt = (t_b - t_a) / (len(field) - 1)
    return t_a, t_b, dt, t_a + dt * np.arange(len(field))


def with_taper(field):
    """The trajectory of the tapered rows of ``field``."""
    t_a, t_b, _, times = window(field)
    return Trajectory(field.times, SpectralField(
        field.grid, field.field.half * temporal_taper(times, t_a, t_b)[:, None]))


def inverse_spacetime_transform(spec):
    """Invert the 2D transform, crop back to the window and re-modulate by exp(i t xi^3): the
    tapered rows as a trajectory."""
    f = spec.field
    t_a, _, dt, times = window(f)
    half = np.fft.ifft(spec.values * np.exp(1j * spec.lam * t_a)[:, None], axis=0)[:len(f)] / dt
    half *= airy_phase(f.grid.xi, times[:, None])
    return Trajectory(f.times, SpectralField(f.grid, half, copy=False))


def spacetime_l2_norm(x):
    """Space-time L2 norm: Parseval over the (lam, xi) cells of a spectrum, or over the rows of
    a trajectory as stored (dt weights, Parseval in x)."""
    if isinstance(x, SpacetimeSpectrum):
        return float(np.sqrt(np.sum(x.power()) * x.weight))
    return float(np.sqrt(np.sum(x.grid.inner(x.field.half)) * window(x)[2]))


def keep_mask_formula(grid, fraction=2.0 / 3.0):
    """The 2/3-rule keep-mask in FFT order written out: |k| <= fraction * Nyquist, Nyquist
    dropped."""
    k = np.abs(fft_order_k(grid))
    mask = k <= int(np.floor(fraction * (grid.num_points // 2)))
    mask[k == grid.num_points // 2] = False
    return mask


def sign_formula(n):
    """(-1)^k over k = 0..n-1: the offset of the first grid node from x = 0."""
    return np.where(np.arange(n) % 2 == 0, 1.0, -1.0)


def complex_dealiased_product(f, g, fraction=2.0 / 3.0):
    """Reference dealiased product on the full complex FFT, with the coefficients
    c_k = dx (-1)^k fft(u)_k written out in np.fft (no half-spectrum transform)."""
    grid = f.grid
    n, dx = grid.num_points, grid.dx
    mask, sign = keep_mask_formula(grid, fraction), sign_formula(n)
    u = np.real(np.fft.ifft(f.coeffs * mask * sign)) / dx
    v = np.real(np.fft.ifft(g.coeffs * mask * sign)) / dx
    return SpectralField(grid, (dx * sign * np.fft.fft(u * v) * mask)[:n // 2 + 1])


def airy_propagate(field, t):
    """Exact free (Airy) flow: coeff(xi) <- exp(i t xi^3) coeff(xi), row by row."""
    return SpectralField(field.grid, field.half * airy_phase(field.grid.xi, t))


def project_pn(field, n):
    """Frequency block P_n: multiply the coefficients by beta_n(xi)."""
    return SpectralField(field.grid, field.half * dyadic_bump(n, field.grid.xi))


def project_ql(field, l):
    """Modulation block Q_l of the tapered field, as its tapered rows: every xi column times
    beta_l(lam) on the lam grid."""
    spec = spacetime_transform(field)
    spec.values *= dyadic_bump(l, spec.lam)[:, None]
    return inverse_spacetime_transform(spec)


def continuum_x_norms(f):
    """{N: ||P_N u||_X} for N >= 2 of u = eta(t) S(t) f in continuous time on [-2, 2], the real
    Nyquist column left out, as ``xbar_norm`` leaves it out.  Free evolution makes the transform
    separable, f_hat(xi) E(lam), so each block is the L^2 norm of P_N f on the grid times
    sum_L L^(1/2) (int beta_L(lam)^2 |E(lam)|^2 dlam / 2 pi)^(1/2).  E is the Fourier transform
    of the taper eta by the trapezoid rule on 401 nodes, and the lam integral a sum over 8,001
    points of [-200, 200].  Against 4,001 nodes and 100,001 points of [-2000, 2000] the factor
    agrees to 3e-9.  Budget: 0.2 s per call (about 0.13 s on a 2-vCPU VM)."""
    t = np.linspace(-2.0, 2.0, 401)
    lam = np.linspace(-200.0, 200.0, 8001)
    e = (t[1] - t[0]) * (np.exp(-1j * np.outer(lam, t)) @ temporal_taper(t, -2.0, 2.0))
    e_mass = np.abs(e) ** 2 * (lam[1] - lam[0]) / (2.0 * np.pi)
    factor = sum(np.sqrt(l) * np.sqrt(np.sum(dyadic_bump(l, lam) ** 2 * e_mass))
                 for l in covering_indices(200.0))
    g = f.grid
    mass = (np.abs(f.half) ** 2 * g.half_weight)[:-1] * g.spectral_weight
    return {n: factor * np.sqrt(np.sum(dyadic_bump(n, g.xi[:-1]) ** 2 * mass))
            for n in covering_indices(g.xi[-1])[1:]}


def free_evolution_norm_ratio(f, s, num_time_samples=160):
    """||chi(t) S(t) f||_{xbar^s} / ||f||_{H^s} on the discrete time window [-2, 2]: the
    empirical constant of the free-evolution energy estimate."""
    return xbar_norm(airy_spacetime(f, -2.0, 2.0, num_time_samples), s).xbar_s / hs_norm(f, s)


def hermitian_defect(coeffs):
    """Relative departure of FFT-order coefficients from coeff(-k) = conj(coeff(k))."""
    flipped = np.conj(np.roll(coeffs[::-1], 1))
    scale = np.max(np.abs(coeffs)) or 1.0
    return float(np.max(np.abs(coeffs - flipped)) / scale)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# The tube-pair geometry of ``kdvrad.bilinear`` one draw at a time on Python floats: the
# reference for its array forms, which must give the same bits.  Sums run left to right from 0.0
# (the ``sum`` of Python 3.11; later versions compensate).

def pick(pieces, frac, weights=None):
    """Point at fraction ``frac`` of disjoint intervals weighted by ``weights`` (default: length)."""
    weights = [b - a for a, b in pieces] if weights is None else weights
    total = 0.0
    for w in weights:
        total += w
    pos = frac * total
    for (a, b), w in zip(pieces, weights):
        if pos <= w:
            break
        pos -= w
    return min(a + (b - a) * pos / w, b)


def resonance_roots(x3, h, band1, band2):
    """(xi1, xi2) with xi1 + xi2 = x3 and 3 xi1 xi2 x3 = h, each in its band; else None."""
    disc = x3 * x3 - 4.0 * h / (3.0 * x3)
    if disc < 0:
        return None
    big = (x3 + math.sqrt(disc)) / 2.0
    small = h / (3.0 * x3 * big)
    for z1, z2 in ((big, small), (small, big)):
        if band1[0] <= abs(z1) <= band1[1] and band2[0] <= abs(z2) <= band2[1]:
            return z1, z2
    return None


def admissible_xi3(big_h, band1, band2, xi3, edge_terms):
    """Sorted signed xi3 intervals, |xi3| in xi3, on which both roots fit their bands: the
    pieces between the sorted cuts (lo, hi, the merge point, two per signed band edge)."""
    lo, hi = xi3
    pieces = []
    for sign3 in (-1.0, 1.0):
        h = sign3 * big_h
        cuts = [lo, hi]
        if h > 0:
            cuts.append((4.0 * h / 3.0) ** (1.0 / 3.0))
        for nine_e4, twelve_e, three_e2, six_e in edge_terms:
            disc = nine_e4 + twelve_e * h
            if disc >= 0:
                root = math.sqrt(disc)
                cuts += [(three_e2 + root) / six_e, (three_e2 - root) / six_e]
        cuts = sorted(c for c in cuts if lo <= c <= hi)
        pieces += [(a, b) if sign3 > 0 else (-b, -a) for a, b in zip(cuts, cuts[1:])
                   if b > a and resonance_roots((a + b) / 2.0, h, band1, band2)]
    return sorted(pieces)


def coherent_pair(xi1, xi2, band1, band2):
    """(xi_lo1, xi_lo2, dxi) of one tube pair; x3 = |xi1 + xi2| > 0."""
    x3 = abs(xi1 + xi2)
    fiber_slope = 3.0 * x3 * abs(xi2 - xi1)
    delta_lin = DEFAULT_DTAU / (2.0 * fiber_slope) if fiber_slope > 0 else math.inf
    delta_quad = math.sqrt(DEFAULT_DTAU / (6.0 * x3))
    delta = min(delta_lin, delta_quad, (band1[1] - band1[0]) / 4.0, (band2[1] - band2[0]) / 4.0)
    return xi1 - delta / 2, xi2 - delta / 2, delta / 5.0


def targeted_tube_pair(tg, lam3_frac, xi3_frac):
    """``bilinear._targeted_tube_pairs`` for one draw on floats: its parameters, or None when
    nothing is reachable or the draw rounds off a cut."""
    if not tg["lam3"]:
        return None
    band1, band2 = tg["band1"], tg["band2"]
    big_h = tg["lam_in"] - pick(tg["lam3"], lam3_frac, tg["lam3_weights"])
    pieces = admissible_xi3(big_h, band1, band2, tg["xi3"], tg["edge_terms"])
    if not pieces:
        return None
    xi3 = pick(pieces, xi3_frac)
    sign3 = 1.0 if xi3 > 0 else -1.0
    roots = resonance_roots(abs(xi3), sign3 * big_h, band1, band2)
    if roots is None:
        return None
    return coherent_pair(sign3 * roots[0], sign3 * roots[1], band1, band2)


def elliptic_k_kp_e(k, iterations=10):
    """(K, K', E) of the modulus 0 < k < 1 from the arithmetic-geometric mean after a fixed
    number of iterations: K = pi / (2 M(1, k')), K' = pi / (2 M(1, k)) and
    E = K (1 - sum_n 2^(n-1) c_n^2), with c_0 = k and c_(n+1) = (a_n - b_n) / 2.  Ten iterations
    reach round-off for k' down to 1e-5 (about 1e-15 off the closed forms at k = 0.99999)."""
    def agm(b):
        a, c2, total = 1.0, 1.0 - b * b, 0.0
        for n in range(iterations):
            total += 2.0 ** (n - 1) * c2
            a, b, c2 = (a + b) / 2.0, math.sqrt(a * b), ((a - b) / 2.0) ** 2
        return a, total

    m, total = agm(math.sqrt(1.0 - k * k))
    big_k = math.pi / (2.0 * m)
    return big_k, math.pi / (2.0 * agm(k)[0]), big_k * (1.0 - total)


def cnoidal_wave(grid, k, j, delta=0.0):
    """(samples, speed, radius) of the cnoidal wave u = 12 beta^2 dn^2(beta x, k) + delta with
    beta = j K / L, j periods on the grid: a travelling wave of u_t + u_xxx + u u_x = 0 at speed
    c = 4 beta^2 (1 + k'^2) + delta, analytic in the strip |Im x| < K' / beta.  The samples sum
    the Fourier series dn^2(z) = E/K + (2 pi^2 / K^2) sum_n n q^n / (1 - q^(2n)) cos(n pi z / K),
    q = exp(-pi K' / K) (DLMF 22.11.13), up to q^n < e^-40."""
    big_k, big_kp, e = elliptic_k_kp_e(k)
    beta = j * big_k / grid.half_length
    q = math.exp(-math.pi * big_kp / big_k)
    n = np.arange(1, 1 + math.ceil(40.0 / -math.log(q)))
    series = (n * q ** n / (1.0 - q ** (2 * n))) @ np.cos(np.outer(n, math.pi * beta / big_k
                                                                * grid.x))
    dn2 = e / big_k + 2.0 * math.pi ** 2 / big_k ** 2 * series
    return (12.0 * beta ** 2 * dn2 + delta, 4.0 * beta ** 2 * (2.0 - k * k) + delta,
            big_kp / beta)
