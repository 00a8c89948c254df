"""Independent numpy-only oracles for the benchmark's hard checks.

Nothing here imports kdvrad: each oracle recomputes its quantity from the raw
coefficient arrays the program returns, so a defect in the program cannot
hide in the oracle.

Coefficient arrays follow the program's continuous normalization on the
periodic grid [-L, L) with n nodes:  c_k = dx * (-1)^k * fft(u)_k, where
xi_k = pi k / L in FFT order.
"""
from __future__ import annotations

import numpy as np


def samples_from_coeffs(coeffs: np.ndarray, half_length: float) -> np.ndarray:
    """Physical samples of a real field from its continuous-normalized coefficients."""
    n = coeffs.size
    dx = 2.0 * half_length / n
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)  # (-1)^k, n even
    return np.real(np.fft.ifft(coeffs * sign)) / dx


# ---------------------------------------------------------------------------
# Exact 2-soliton:  u = 12 d_x^2 log tau,
#   tau = 1 + E1 + E2 + A12 E1 E2,  E_i = exp(k_i (x - x0_i) - k_i^3 t),
#   A12 = ((k1 - k2) / (k1 + k2))^2.
# ---------------------------------------------------------------------------

def _tau_terms(z, t, k, x0):
    k1, k2 = k
    a12 = ((k1 - k2) / (k1 + k2)) ** 2
    e1 = np.exp(k1 * (z - x0[0]) - k1 ** 3 * t)
    e2 = np.exp(k2 * (z - x0[1]) - k2 ** 3 * t)
    return e1, e2, a12 * e1 * e2


def two_soliton(x, t: float, k, x0) -> np.ndarray:
    """Closed-form 2-soliton of u_t + u_xxx + u u_x = 0 at time t."""
    k1, k2 = k
    e1, e2, e12 = _tau_terms(np.asarray(x, dtype=float), t, k, x0)
    tau = 1.0 + e1 + e2 + e12
    tau_x = k1 * e1 + k2 * e2 + (k1 + k2) * e12
    tau_xx = k1 ** 2 * e1 + k2 ** 2 * e2 + (k1 + k2) ** 2 * e12
    return 12.0 * (tau * tau_xx - tau_x ** 2) / tau ** 2


def nearest_tau_zero(t: float, k, x0, half_length: float,
                     y_max: float = 3.5) -> float:
    """Distance from the real axis to the nearest complex zero of tau(., t).

    The zeros of tau are the (double) poles of u, so this is the true radius
    of analyticity.  Candidates are the local minima of |tau| / (sum of the
    term magnitudes) on a grid over [-L, L] x (0, y_max], plus the isolated
    single-soliton zeros x0_i + k_i^2 t + i pi / k_i; all are refined
    together by Newton's method and only converged zeros count.
    """
    k1, k2 = k
    x = np.linspace(-half_length, half_length, 321)
    y = np.linspace(0.02, y_max, 88)
    z = x[None, :] + 1j * y[:, None]

    def relative_tau(zz):
        e1, e2, e12 = _tau_terms(zz, t, k, x0)
        return np.abs(1.0 + e1 + e2 + e12) / (1.0 + np.abs(e1) + np.abs(e2) + np.abs(e12))

    rel = relative_tau(z)
    inner = rel[1:-1, 1:-1]
    is_min = np.ones_like(inner, dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy or dx:
                is_min &= inner <= rel[1 + dy:rel.shape[0] - 1 + dy,
                                       1 + dx:rel.shape[1] - 1 + dx]
    minima = z[1:-1, 1:-1][is_min]
    deepest = minima[np.argsort(inner[is_min])[:16]]
    guesses = [x0[i] + k[i] ** 2 * t + 1j * np.pi / k[i] for i in (0, 1)]
    zc = np.concatenate([deepest, np.asarray(guesses, dtype=complex)])
    with np.errstate(all="ignore"):
        for _ in range(60):
            e1, e2, e12 = _tau_terms(zc, t, k, x0)
            step = (1.0 + e1 + e2 + e12) / (k1 * e1 + k2 * e2 + (k1 + k2) * e12)
            zc = np.where(np.isfinite(step), zc - step, zc)
        ok = (relative_tau(zc) <= 1e-12) & (np.abs(zc.imag) > 1e-8) \
            & (np.abs(zc.real) <= 2 * half_length)
    if not np.any(ok):
        raise ValueError(f"no zero of tau found near the real axis at t = {t}")
    return float(np.min(np.abs(zc.imag[ok])))


# ---------------------------------------------------------------------------
# Almost conservation: with w = exp(sigma|D|) u,
#   d/dt ||w||^2 = 2 int w f(w) dx,
#   f(w) = (1/2) d_x [ w^2 - exp(sigma|D|)((exp(-sigma|D|) w)^2) ],
# both products 2/3-dealiased (factors and result truncated).
# ---------------------------------------------------------------------------

def gevrey_energy_and_flux(coeffs: np.ndarray, half_length: float,
                           sigma: float, dealias: float = 2.0 / 3.0):
    """(||w||^2, 2 int w f(w) dx) for one snapshot, on the half spectrum."""
    n = coeffs.size
    dx = 2.0 * half_length / n
    kk = np.arange(n // 2 + 1)
    xi = np.pi * kk / half_length
    weight = np.full(kk.size, 2.0)  # Parseval weights of the half spectrum
    weight[0] = weight[-1] = 1.0
    u_hat = np.fft.rfft(samples_from_coeffs(coeffs, half_length))
    lift = np.exp(sigma * xi)
    w_hat = lift * u_hat
    energy = float(np.sum(weight * np.abs(w_hat) ** 2) * dx / n)
    mask = kk <= int(np.floor(dealias * (n // 2)))
    mask[-1] = False

    def square(a_hat):
        v = np.fft.irfft(a_hat * mask, n)
        return np.fft.rfft(v * v) * mask

    f_hat = 0.5j * xi * (square(w_hat) - lift * square(w_hat / lift))
    flux = 2.0 * float(np.sum(weight * np.real(np.conj(w_hat) * f_hat)) * dx / n)
    return energy, flux


def acl_oracle(coeff_list, times, half_length: float, sigma: float):
    """Energy identity on a recorded trajectory, computed independently.

    Returns (energies, work_integral, identity_rel) where the work integral
    is the trapezoidal time integral of the flux and identity_rel compares
    it with the change of ||w||^2 over the interval.
    """
    pairs = np.array([gevrey_energy_and_flux(c, half_length, sigma) for c in coeff_list])
    energies, flux = pairs[:, 0], pairs[:, 1]
    integral = float(np.trapezoid(flux, times))
    gap = abs((energies[-1] - energies[0]) - integral)
    return energies, integral, gap / max(abs(integral), 1e-300)
