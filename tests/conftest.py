import numpy as np
import pytest

from kdvrad.bumps import dyadic_bump
from kdvrad.dyadic import xbar_norm
from kdvrad.gevrey import hs_norm
from kdvrad.grid import GridSpec, SpectralField, airy_phase, forward_transform
from kdvrad.spacetime import (SpacetimeField, airy_spacetime, inverse_spacetime_transform,
                              spacetime_transform)


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
    """SpacetimeField of real samples values[j] at the j-th of nt uniform times on [t_a, t_b]."""
    return SpacetimeField(SpectralField(grid, grid.to_half(values)), t_a, t_b)


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
    """Modulation block Q_l of the tapered field."""
    spec = spacetime_transform(field)
    spec.values *= dyadic_bump(l, spec.modulation())
    return inverse_spacetime_transform(spec)


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
