"""Time integration: exact linear flow, soliton benchmark, invariants."""
import dataclasses
import warnings

import numpy as np
import pytest

from kdvrad import solver
from kdvrad.errors import BlowupError, ConfigError, DomainTooSmallError
from kdvrad.gevrey import estimate_radius
from kdvrad.grid import GridSpec, SpectralField, airy_phase, forward_transform
from kdvrad.solver import SolverConfig, Trajectory, classical_invariants, evolve, soliton

from conftest import airy_propagate, fft_order_k, hermitian_defect, random_band_field


def soliton_values(grid, speed, center):
    return 3.0 * speed / np.cosh(np.sqrt(speed) / 2.0 * (grid.x - center)) ** 2


class TestAiryPropagate:
    def test_t_zero_identity(self, small_grid, rng):
        f = random_band_field(small_grid, rng)
        assert np.array_equal(airy_propagate(f, 0.0).coeffs, f.coeffs)

    def test_unitary_round_trip(self, small_grid, rng):
        # unitary below Nyquist; a real field's Nyquist entry is real, and the flow
        # keeps the cos(t xi^3) part of its phase there, all that the grid samples see
        f = random_band_field(small_grid, rng)
        g = airy_propagate(airy_propagate(f, 2.3), -2.3)
        below = np.abs(fft_order_k(small_grid)) != small_grid.num_points // 2
        assert np.max(np.abs(g.coeffs[below] - f.coeffs[below])) \
            <= 1e-13 * np.max(np.abs(f.coeffs))
        xi_n = small_grid.xi[-1]
        assert g.half[-1] == f.half[-1] * airy_phase(xi_n, 2.3).real * airy_phase(xi_n, -2.3).real

    def test_l2_preserved(self, small_grid, rng):
        f = random_band_field(small_grid, rng)
        assert airy_propagate(f, 7.7).l2_norm() == pytest.approx(f.l2_norm(), rel=1e-13)

    def test_modulus_invariant(self, small_grid, rng):
        f = random_band_field(small_grid, rng)
        g = airy_propagate(f, 5.0)
        below = np.abs(fft_order_k(small_grid)) != small_grid.num_points // 2
        assert np.max(np.abs(np.abs(g.coeffs[below]) - np.abs(f.coeffs[below]))) \
            <= 1e-14 * np.max(np.abs(f.coeffs))
        xi_n = small_grid.xi[-1]
        assert g.half[-1] == f.half[-1] * airy_phase(xi_n, 5.0).real

    def test_stack_rows_equal_one_row_calls(self, rng):
        # a stack of two fields on a 64-point grid has shape (2, 33)
        grid = GridSpec(64, 20.0)
        fields = [random_band_field(grid, rng) for _ in range(2)]
        stack = airy_propagate(SpectralField(grid, np.stack([f.half for f in fields])), 0.7)
        for row, f in zip(stack.half, fields):
            assert row.tobytes() == airy_propagate(f, 0.7).half.tobytes()


def two_soliton_values(x, t, k, x0):
    """Exact 2-soliton u = 12 d_x^2 log tau, tau = 1 + E1 + E2 + A12 E1 E2, with
    E_i = exp(k_i (x - x0_i) - k_i^3 t) and A12 = ((k1 - k2) / (k1 + k2))^2.

    d_x^2 log tau is the variance of the slopes (0, k1, k2, k1 + k2) of the four
    terms of tau, weighted by the terms; the weights are formed from their logs,
    so nothing overflows and no large terms cancel.
    """
    (k1, k2), (a, b) = k, x0
    eta1 = k1 * (x - a) - k1 ** 3 * t
    eta2 = k2 * (x - b) - k2 ** 3 * t
    logs = np.stack([np.zeros_like(x), eta1, eta2,
                     eta1 + eta2 + 2 * np.log(abs(k1 - k2) / (k1 + k2))])
    slopes = np.array([0.0, k1, k2, k1 + k2])[:, None]
    w = np.exp(logs - np.max(logs, axis=0))
    w /= np.sum(w, axis=0)
    mean = np.sum(w * slopes, axis=0)
    return 12.0 * np.sum(w * (slopes - mean) ** 2, axis=0)


def fine_grid_invariants(field):
    """(mass, momentum, hamiltonian) with the integrands on the 2N grid, its transform
    written out in np.fft, and the momentum as the weighted half-spectrum sum."""
    g = field.grid
    n, half = g.num_points, g.num_points // 2
    coeffs = np.zeros(2 * n, dtype=np.complex128)
    coeffs[:half], coeffs[-half:] = field.coeffs[:half], field.coeffs[-half:]
    fine_dx = g.dx / 2
    k = np.fft.fftfreq(2 * n) * 2 * n
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    u = np.real(np.fft.ifft(coeffs * sign)) / fine_dx
    ux = np.real(np.fft.ifft(coeffs * (1j * np.pi * k / g.half_length) * sign)) / fine_dx
    weight = np.full(half + 1, 2.0)
    weight[[0, -1]] = 1.0
    return (float(np.real(field.coeffs[0])),
            float(np.sum(weight * np.abs(field.half) ** 2) * g.spectral_weight),
            float(np.sum(0.5 * ux * ux - u ** 3 / 6.0) * fine_dx))


def nearest_tau_zero(t, k, x0, half_length, y_max=3.5):
    """Distance from the real axis to the nearest complex zero of tau(., t) of
    ``two_soliton_values``: the zeros are the double poles of u, so this is the
    true radius of analyticity.

    The deepest local minima of |tau| / (sum of the term moduli) on a grid over
    [-L, L] x (0, y_max], with the single-soliton zeros x0_i + k_i^2 t + i pi / k_i,
    seed Newton's method; only converged zeros count.
    """
    (k1, k2), (a, b) = k, x0

    def terms(z):
        e1 = np.exp(k1 * (z - a) - k1 ** 3 * t)
        e2 = np.exp(k2 * (z - b) - k2 ** 3 * t)
        return e1, e2, ((k1 - k2) / (k1 + k2)) ** 2 * e1 * e2

    def relative_tau(z):
        e1, e2, e12 = terms(z)
        return np.abs(1 + e1 + e2 + e12) / (1 + np.abs(e1) + np.abs(e2) + np.abs(e12))

    z = np.linspace(-half_length, half_length, 321)[None, :] \
        + 1j * np.linspace(0.02, y_max, 88)[:, None]
    rel = relative_tau(z)
    inner = rel[1:-1, 1:-1]
    is_min = np.ones_like(inner, dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy or dx:
                is_min &= inner <= rel[1 + dy:rel.shape[0] - 1 + dy, 1 + dx:rel.shape[1] - 1 + dx]
    deepest = z[1:-1, 1:-1][is_min][np.argsort(inner[is_min])[:16]]
    zc = np.concatenate([deepest, [a + k1 ** 2 * t + 1j * np.pi / k1,
                                   b + k2 ** 2 * t + 1j * np.pi / k2]])
    with np.errstate(all="ignore"):
        for _ in range(60):
            e1, e2, e12 = terms(zc)
            step = (1 + e1 + e2 + e12) / (k1 * e1 + k2 * e2 + (k1 + k2) * e12)
            zc = np.where(np.isfinite(step), zc - step, zc)
        ok = (relative_tau(zc) <= 1e-12) & (np.abs(zc.imag) > 1e-8) \
            & (np.abs(zc.real) <= 2 * half_length)
    assert np.any(ok), f"no zero of tau found near the real axis at t = {t}"
    return float(np.min(np.abs(zc.imag[ok])))


def two_soliton_datum(grid):
    """The c = 1 soliton at x = -10 plus the c = 2.25 soliton at x = 5."""
    return SpectralField(grid, soliton(grid, 1.0, -10.0).half + soliton(grid, 2.25, 5.0).half)


def expression_form_trajectory(f, T, dt, record_every, scheme, folded=True):
    """(times, full-spectrum snapshots) of ``evolve`` rebuilt from the scheme's step written
    as whole-array expressions on the k = 0..n/2 half-spectrum, with the frequencies, the 2/3
    mask and the phases spelled as explicit formulas; a record every record_every steps and
    at the last step.  A record's tail outside the mask, which the nonlinear term never
    writes, is the datum's times exp(i t xi^3), as in ``free_tail``.

    ``folded``: the derivative factor dfactor is folded into the stage weights, each weight's
    operands in the order written, and the nonlinear term is the bare rfft of the square.
    Otherwise the textbook form, which applies dfactor to each nonlinear evaluation."""
    g = f.grid
    n = g.num_points
    h = n // 2 + 1
    xi = np.pi * np.arange(h) / g.half_length
    mask = np.arange(h) <= int(np.floor(2.0 / 3.0 * (n // 2)))
    mask[-1] = False
    dfactor = -0.5j * xi * mask / g.dx
    num_steps = max(1, int(round(T / dt)))
    dt = T / num_steps

    def square(uh):
        u = np.fft.irfft(uh * mask)
        return np.fft.rfft(u * u)

    def nonlinear(uh):
        return dfactor * square(uh)

    if scheme == "ifrk4":
        e_half = np.exp(1j * np.mod(xi ** 3 * (dt / 2), 2.0 * np.pi))
        e_full = e_half * e_half
        c1, c2, c3 = dt / 2 * e_half * dfactor, dt / 2 * dfactor, dt * e_half * dfactor
        w1, w23, w4 = dt / 6 * e_full * dfactor, dt / 3 * e_half * dfactor, dt / 6 * dfactor

        def step(uh):
            p1 = square(uh)
            a = e_half * uh + c1 * p1
            p2 = square(a)
            b = e_half * uh + c2 * p2
            p3 = square(b)
            c = e_full * uh + c3 * p3
            p4 = square(c)
            return e_full * uh + w1 * p1 + w23 * (p2 + p3) + w4 * p4

        def textbook_step(uh):
            n1 = nonlinear(uh)
            a = e_half * (uh + (dt / 2) * n1)
            n2 = nonlinear(a)
            b = e_half * uh + (dt / 2) * n2
            n3 = nonlinear(b)
            c = e_full * uh + dt * e_half * n3
            n4 = nonlinear(c)
            return e_full * uh + (dt / 6) * (e_full * n1 + 2 * e_half * (n2 + n3) + n4)
    else:
        # Kassam & Trefethen (2005): each phi function is its mean over 64 points of the
        # unit circle about lam dt, which avoids the cancellation near lam dt = 0
        lam = 1j * xi ** 3
        e_full, e_half = np.exp(lam * dt), np.exp(lam * dt / 2)
        r = np.exp(2j * np.pi * (np.arange(1, 65) - 0.5) / 64)
        lr = lam[:, None] * dt + r[None, :]
        q = dt * np.mean((np.exp(lr / 2) - 1) / lr, axis=1)
        f1 = dt * np.mean((-4 - lr + np.exp(lr) * (4 - 3 * lr + lr ** 2)) / lr ** 3, axis=1)
        f2 = dt * np.mean((2 + lr + np.exp(lr) * (-2 + lr)) / lr ** 3, axis=1)
        f3 = dt * np.mean((-4 - 3 * lr - lr ** 2 + np.exp(lr) * (4 - lr)) / lr ** 3, axis=1)
        qd, f1d, two_f2d, f3d = q * dfactor, f1 * dfactor, 2 * f2 * dfactor, f3 * dfactor

        def step(uh):
            p1 = square(uh)
            a = e_half * uh + qd * p1
            p2 = square(a)
            b = e_half * uh + qd * p2
            p3 = square(b)
            c = e_half * a + qd * (2 * p3 - p1)
            p4 = square(c)
            return e_full * uh + f1d * p1 + two_f2d * (p2 + p3) + f3d * p4

        def textbook_step(uh):
            n1 = nonlinear(uh)
            a = e_half * uh + q * n1
            n2 = nonlinear(a)
            b = e_half * uh + q * n2
            n3 = nonlinear(b)
            c = e_half * a + q * (2 * n3 - n1)
            n4 = nonlinear(c)
            return e_full * uh + f1 * n1 + 2 * f2 * (n2 + n3) + f3 * n4

    if not folded:
        step = textbook_step
    uh, times, snaps = f.coeffs[:h], [0.0], [f.coeffs]
    for i in range(1, num_steps + 1):
        uh = step(uh)
        if i % record_every == 0 or i == num_steps:
            times.append(i * dt)
            snaps.append(hermitian_completion(free_tail(f.coeffs[:h], uh, mask, xi, i * dt)))
    return np.array(times), snaps


def free_tail(uh0, uh, mask, xi, t):
    """uh inside the 2/3 mask; outside it the datum uh0 under the Airy flow to time t, written
    in closed form."""
    return np.where(mask, uh, uh0 * np.exp(1j * np.mod(xi ** 3 * t, 2.0 * np.pi)))


def hermitian_completion(uh):
    """All n coefficients of a k = 0..n/2 half-spectrum, its k = 0 and Nyquist entries real."""
    return np.concatenate(([uh[0].real], uh[1:-1], [uh[-1].real], np.conj(uh[-2:0:-1])))


COLLISION_K, COLLISION_X0 = (1.0, 1.5), (-2.0, -7.0)


@pytest.fixture(scope="module", params=["ifrk4", "etdrk4"])
def collision(request, default_grid):
    """Exact 2-soliton datum and its trajectory to t = 6, 13 snapshots: the c = 2.25
    soliton starts 5 behind the c = 1 one and overtakes it before t = 6."""
    g = default_grid
    f = forward_transform(two_soliton_values(g.x, 0.0, COLLISION_K, COLLISION_X0), g)
    config = SolverConfig(dt=1e-3, scheme=request.param, record_every=500)
    return f, evolve(f, 6.0, config)


class TestClassicalInvariants:
    def test_zero_field(self, small_grid):
        f = forward_transform(np.zeros(small_grid.num_points), small_grid)
        assert classical_invariants(f) == (0.0, 0.0, 0.0)

    def test_soliton_momentum_closed_form(self, default_grid):
        # int 9 sech^4(x/2) dx = 24; confirmed by direct quadrature below
        g = default_grid
        x_fine = np.linspace(-40, 40, 200001)
        quad = np.trapezoid(9.0 / np.cosh(x_fine / 2.0) ** 4, x_fine)
        assert quad == pytest.approx(24.0, rel=1e-10)
        f = soliton(g, speed=1.0)
        _, momentum, _ = classical_invariants(f)
        assert momentum == pytest.approx(24.0, rel=1e-12)

    def test_soliton_hamiltonian_closed_form(self, default_grid):
        # int (u_x^2/2 - u^3/6) dx = -(36/5) c^(5/2) for u = 3c sech^2(sqrt(c) x / 2)
        x = np.linspace(-40, 40, 400001)
        u = 3.0 / np.cosh(x / 2.0) ** 2
        ux = -3.0 * np.tanh(x / 2.0) / np.cosh(x / 2.0) ** 2
        assert np.trapezoid(0.5 * ux * ux - u ** 3 / 6.0, x) == pytest.approx(-7.2, rel=1e-9)
        for c in (0.5, 1.0, 2.25):
            _, _, hamiltonian = classical_invariants(soliton(default_grid, speed=c))
            assert hamiltonian == pytest.approx(-36.0 / 5.0 * c ** 2.5, rel=1e-12)

    def test_equal_fine_grid_formula(self, default_grid, small_grid):
        fields = [soliton(default_grid, c, center=x0)
                  for c, x0 in ((0.5, -3.0), (1.0, 0.0), (2.25, 5.0))]
        for seed in range(3):
            fields += [random_band_field(g, np.random.default_rng(seed))
                       for g in (default_grid, small_grid)]
        for f in fields:
            mass, momentum, hamiltonian = classical_invariants(f)
            ref = fine_grid_invariants(f)
            assert (mass, momentum) == ref[:2]
            assert momentum == pytest.approx(np.sum(np.abs(f.coeffs) ** 2) * f.grid.spectral_weight,
                                             rel=1e-14)
            assert abs(hamiltonian - ref[2]) <= 1e-13 * abs(ref[2])

    def test_builds_no_grid(self, default_grid, monkeypatch):
        f = soliton(default_grid, 1.0)
        expected = classical_invariants(f)

        def refuse(self):
            raise AssertionError("GridSpec constructed")

        monkeypatch.setattr(GridSpec, "__post_init__", refuse)
        assert classical_invariants(f) == expected


class TestEvolve:
    def test_zero_stays_zero(self, small_grid):
        f = forward_transform(np.zeros(small_grid.num_points), small_grid)
        cfg = SolverConfig(dt=1e-3, record_every=100, check_boundary=False)
        traj = evolve(f, 0.2, cfg)
        assert all(s.l2_norm() == 0.0 for s in traj.snapshots)

    def test_soliton_travels_at_speed_c(self, default_grid):
        g = default_grid
        T = 1.0
        traj = evolve(soliton(g, 1.0, 0.0), T, SolverConfig(dt=1e-3, record_every=250))
        final = traj.snapshots[-1].values()
        peak = g.x[np.argmax(final)]
        assert abs(peak - T) <= 2 * g.dx
        err = np.sqrt(np.sum((final - soliton_values(g, 1.0, T)) ** 2) * g.dx)
        assert err < 1e-6

    def test_small_amplitude_matches_linear_flow(self, default_grid):
        g = default_grid
        xi0 = 16 * np.pi / g.half_length
        T = 0.1
        cfg = SolverConfig(dt=1e-3, record_every=100, check_boundary=False)

        def deviation(eps):
            f = forward_transform(eps * np.cos(xi0 * g.x)
                                  * np.exp(-(g.x / 20.0) ** 2), g)
            traj = evolve(f, T, cfg)
            linear = airy_propagate(f, T)
            return np.sqrt(np.sum(np.abs(traj.snapshots[-1].coeffs
                                         - linear.coeffs) ** 2) * g.spectral_weight)

        # deviation from the free flow is quadratic in the amplitude
        d2, d3 = deviation(1e-2), deviation(1e-3)
        assert 30.0 < d2 / d3 < 300.0
        assert deviation(1e-6) < 1e-10

    def test_fourth_order_dt_convergence(self, default_grid):
        g = default_grid
        f = soliton(g, 1.0, 0.0)
        T = 1.0
        errs = []
        for dt in (4e-2, 2e-2, 1e-2):
            # coarse-dt radiation reaches the domain edge; gate off for the study
            traj = evolve(f, T, SolverConfig(dt=dt, record_every=10 ** 9,
                                             check_boundary=False))
            err = np.sqrt(np.sum(
                (traj.snapshots[-1].values() - soliton_values(g, 1.0, T)) ** 2) * g.dx)
            errs.append(err)
        assert errs[0] / errs[1] >= 8.0
        assert errs[1] / errs[2] >= 8.0

    def test_etdrk4_matches_ifrk4(self, default_grid):
        g = default_grid
        f = soliton(g, 1.0, 0.0)
        a = evolve(f, 0.2, SolverConfig(dt=1e-3, scheme="ifrk4", record_every=10 ** 9))
        b = evolve(f, 0.2, SolverConfig(dt=1e-3, scheme="etdrk4", record_every=10 ** 9))
        diff = np.sqrt(np.sum((a.snapshots[-1].values() - b.snapshots[-1].values()) ** 2) * g.dx)
        assert diff < 1e-9

    def test_conservation_over_unit_time(self, default_grid):
        g = default_grid
        traj = evolve(soliton(g, 1.0, 0.0), 1.0, SolverConfig(dt=1e-3, record_every=200))
        mass, momentum, hamiltonian = classical_invariants(traj.field)
        mass_drift = np.max(np.abs(mass - mass[0])) / max(abs(mass[0]), 1.0)
        mom_drift = np.max(np.abs(momentum - momentum[0])) / momentum[0]
        ham_drift = np.max(np.abs(hamiltonian - hamiltonian[0])) / abs(hamiltonian[0])
        assert mass_drift < 1e-12
        assert mom_drift < 1e-8
        assert ham_drift < 1e-6

    def test_reality_preserved(self, default_grid):
        for scheme in ("ifrk4", "etdrk4"):
            traj = evolve(soliton(default_grid, 1.0), 0.5,
                          SolverConfig(dt=1e-3, scheme=scheme, record_every=100))
            for snap in traj.snapshots:
                assert hermitian_defect(snap.coeffs) < 1e-12
            # every recorded snapshot is a Hermitian completion of the state
            assert all(hermitian_defect(snap.coeffs) == 0.0 for snap in traj.snapshots[1:])

    def test_time_reversal(self, default_grid):
        g = default_grid
        f = soliton(g, 1.0, -2.0)
        T = 1.0
        cfg = SolverConfig(dt=1e-3, record_every=10 ** 9)
        fwd = evolve(f, T, cfg)
        one_way = np.sqrt(np.sum(
            (fwd.snapshots[-1].values() - soliton_values(g, 1.0, T - 2.0)) ** 2) * g.dx)
        # x -> -x conjugates the coefficients of a real field
        h = g.num_points // 2 + 1
        reflected = SpectralField(g, np.conj(fwd.snapshots[-1].coeffs)[:h])
        back = evolve(reflected, T, cfg)
        recovered = SpectralField(g, np.conj(back.snapshots[-1].coeffs)[:h])
        err = np.sqrt(np.sum((recovered.values() - f.values()) ** 2) * g.dx)
        assert err <= 2 * one_way + 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_dt_or_horizon_is_a_config_error(self, small_grid, bad):
        with pytest.raises(ConfigError, match="finite"):
            SolverConfig(dt=bad)
        with pytest.raises(ConfigError, match="finite"):
            evolve(soliton(small_grid, 1.0), bad, SolverConfig(dt=1e-3))

    def test_a_step_count_past_the_float_range_is_a_config_error(self):
        # T / dt = 1e310 overflows to inf: no step count
        with pytest.raises(ConfigError, match=r"T / dt is not finite: T = 1e\+10, dt = 1e-300"):
            evolve(soliton(GridSpec(256, 40.0), 1.0), 1e10, SolverConfig(dt=1e-300))

    @pytest.mark.parametrize("bad", [2.0, 1.5, 0, -3])
    def test_record_every_must_be_a_positive_integer(self, small_grid, bad):
        with pytest.raises(ConfigError, match="record_every must be a positive integer"):
            SolverConfig(record_every=bad)
        # numpy integers are integers
        config = SolverConfig(dt=1e-3, record_every=np.int64(2), check_boundary=False)
        assert len(evolve(soliton(small_grid, 1.0), 4e-3, config)) == 3

    def test_blowup_reports_last_valid_time(self, default_grid):
        g = default_grid
        f = soliton(g, 4.0, 0.0)
        with pytest.raises(BlowupError) as exc:
            evolve(f, 50.0, SolverConfig(dt=0.5, record_every=1, check_boundary=False))
        assert exc.value.last_valid_time is not None

    def test_boundary_violation_detected(self, default_grid):
        g = default_grid
        f = forward_transform(soliton_values(g, 1.0, 38.0), g)
        with pytest.raises(DomainTooSmallError):
            evolve(f, 0.1, SolverConfig(dt=1e-3, record_every=10))

    def test_two_soliton_snapshots_equal_reference_stepper_bitwise(self, default_grid):
        # IFRK4 written out with the frequencies, the 2/3 mask and the Airy phase spelled as
        # explicit formulas on a k = 0..n/2 half-spectrum, the derivative factor folded into
        # the stage weights
        g = default_grid
        f = SpectralField(g, soliton(g, 1.0, -10.0).half + soliton(g, 2.25, 5.0).half)
        traj = evolve(f, 0.06, SolverConfig(dt=1e-3, record_every=20))
        n = g.num_points
        h = n // 2 + 1
        xi = np.pi * np.arange(h) / g.half_length
        mask = np.arange(h) <= int(np.floor(2.0 / 3.0 * (n // 2)))
        mask[-1] = False
        dt = 0.06 / 60
        e_half = np.exp(1j * np.mod(xi ** 3 * (dt / 2), 2.0 * np.pi))
        e_full = e_half * e_half

        def reference(uh0, dfactor, record):
            c1, c2, c3 = dt / 2 * e_half * dfactor, dt / 2 * dfactor, dt * e_half * dfactor
            w1, w23, w4 = dt / 6 * e_full * dfactor, dt / 3 * e_half * dfactor, dt / 6 * dfactor

            def square(uh):
                u = np.fft.irfft(uh * mask)
                return np.fft.rfft(u * u)

            uh, snaps = uh0, [f.coeffs]
            for i in range(1, 61):
                p1 = square(uh)
                a = e_half * uh + c1 * p1
                p2 = square(a)
                b = e_half * uh + c2 * p2
                p3 = square(b)
                c = e_full * uh + c3 * p3
                p4 = square(c)
                uh = e_full * uh + w1 * p1 + w23 * (p2 + p3) + w4 * p4
                if i % 20 == 0:
                    snaps.append(record(free_tail(uh0, uh, mask, xi, i * dt)))
            return snaps

        # the grid's half-spectrum dx (-1)^k rfft: the 1/dx of the normalization
        # goes into the derivative factor
        expected = reference(f.coeffs[:h], -0.5j * xi * mask / g.dx, hermitian_completion)
        assert len(traj.snapshots) == len(expected) == 4
        for snap, ref in zip(traj.snapshots, expected):
            assert snap.coeffs.tobytes() == ref.tobytes()
        # numpy's unnormalized rfft, and the textbook IFRK4 that applies the derivative factor
        # to each nonlinear evaluation, step the same flow to roundoff
        raw = reference(np.fft.rfft(f.values()), -0.5j * xi * mask,
                        lambda uh: forward_transform(np.fft.irfft(uh), g).coeffs)
        _, textbook = expression_form_trajectory(f, 0.06, 1e-3, 20, "ifrk4", folded=False)
        for snap, ref, book in zip(traj.snapshots, raw, textbook):
            assert np.max(np.abs(snap.coeffs - ref)) <= 1e-14 * np.max(np.abs(ref))
            assert np.max(np.abs(snap.coeffs - book)) <= 1e-14 * np.max(np.abs(book))

    def test_etdrk4_snapshots_equal_reference_stepper_bitwise(self, default_grid):
        f = two_soliton_datum(default_grid)
        traj = evolve(f, 0.06, SolverConfig(dt=1e-3, scheme="etdrk4", record_every=20))
        times, expected = expression_form_trajectory(f, 0.06, 1e-3, 20, "etdrk4")
        assert traj.times.tobytes() == times.tobytes()
        assert len(traj.snapshots) == len(expected) == 4
        for snap, ref in zip(traj.snapshots, expected):
            assert snap.coeffs.tobytes() == ref.tobytes()
        # the textbook ETDRK4, the derivative factor on each nonlinear evaluation
        _, textbook = expression_form_trajectory(f, 0.06, 1e-3, 20, "etdrk4", folded=False)
        for snap, book in zip(traj.snapshots, textbook):
            assert np.max(np.abs(snap.coeffs - book)) <= 1e-14 * np.max(np.abs(book))

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    @pytest.mark.parametrize("record_every, recorded", [(3, [0, 3, 6, 7]), (10, [0, 7])])
    def test_records_of_a_partial_last_interval_equal_reference_bitwise(
            self, default_grid, scheme, record_every, recorded):
        f = two_soliton_datum(default_grid)
        T = 7e-3  # 7 steps of 1e-3
        traj = evolve(f, T, SolverConfig(dt=1e-3, scheme=scheme, record_every=record_every))
        times, expected = expression_form_trajectory(f, T, 1e-3, record_every, scheme)
        assert traj.times.tolist() == [i * (T / 7) for i in recorded]
        assert traj.times.tobytes() == times.tobytes()
        assert [s.coeffs.tobytes() for s in traj.snapshots] == [r.tobytes() for r in expected]

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    def test_no_state_leaks_through_the_step_buffers(self, default_grid, scheme):
        f = two_soliton_datum(default_grid)
        datum = f.half.tobytes()
        config = SolverConfig(dt=1e-3, scheme=scheme, record_every=7)
        first, second = evolve(f, 0.02, config), evolve(f, 0.02, config)
        assert f.half.tobytes() == datum
        for a, b in zip((first.times, first.field.half, *classical_invariants(first.field)),
                        (second.times, second.field.half, *classical_invariants(second.field))):
            assert a.tobytes() == b.tobytes()

    def test_trajectory_is_plain_read_only_data(self, default_grid):
        traj = evolve(two_soliton_datum(default_grid), 0.02, SolverConfig(dt=1e-3, record_every=7))
        members = {name for name in vars(Trajectory) if not name.startswith("__")}
        assert {f.name for f in dataclasses.fields(Trajectory)} == {"times", "field"}
        assert members == {"grid", "snapshots"}
        assert traj.grid is default_grid and len(traj) == 4
        # neither the field nor the times can be set, nor a record or a time written
        with pytest.raises(AttributeError):
            traj.field = traj.field
        with pytest.raises(ValueError, match="read-only"):
            traj.field.half[1, 1] *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            traj.times[1] = 0.0

    @pytest.mark.parametrize("record_every, last_valid", [(1, 1.0), (4, 0.0)])
    def test_blowup_inside_a_record_interval_raises_no_float_warning(
            self, default_grid, record_every, last_valid):
        # the datum of test_blowup_reports_last_valid_time turns non-finite at step 3, t = 1.5:
        # warnings as errors show that np.errstate covers every step of an interval
        f = soliton(default_grid, 4.0, 0.0)
        config = SolverConfig(dt=0.5, record_every=record_every, check_boundary=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowupError) as exc:
                evolve(f, 50.0, config)
        assert exc.value.last_valid_time == last_valid

    def test_two_soliton_collision_matches_closed_form(self, collision):
        f, traj = collision
        g = f.grid
        assert len(traj) == 13
        err = max(np.max(np.abs(snap.values()
                                - two_soliton_values(g.x, t, COLLISION_K, COLLISION_X0)))
                  for snap, t in zip(traj.snapshots, traj.times))
        assert err <= 1e-8 * np.max(np.abs(f.values()))

    def test_folded_weights_stay_at_the_textbook_scheme_through_the_collision(
            self, collision, request):
        # the derivative factor folded into the stage weights against the textbook scheme,
        # which applies it to each nonlinear evaluation: over the 13 records the gap measured
        # 8.0e-15 (IFRK4) and 5.3e-16 (ETDRK4) of max|u0|
        scheme = request.node.callspec.params["collision"]
        bound = {"ifrk4": 4e-14, "etdrk4": 3e-15}[scheme]
        f, traj = collision
        times, textbook = expression_form_trajectory(f, 6.0, 1e-3, 500, scheme, folded=False)
        assert traj.times.tobytes() == times.tobytes()
        h = f.half.size
        gap = max(np.max(np.abs(snap.values() - SpectralField(f.grid, book[:h]).values()))
                  for snap, book in zip(traj.snapshots, textbook))
        assert gap <= bound * np.max(np.abs(f.values()))

    def test_radius_tracks_the_nearest_pole_through_the_collision(self, collision):
        # the true radius rises from 2.10 to 2.75 at the collision (t = 4.5);
        # the fit reads it low, by 4 % to 23 %, never high
        f, traj = collision
        truth = np.array([nearest_tau_zero(t, COLLISION_K, COLLISION_X0, f.grid.half_length)
                          for t in traj.times])
        sigma_hat = np.array([estimate_radius(snap).sigma_hat for snap in traj.snapshots])
        assert np.all(sigma_hat <= truth)
        assert np.max(np.abs(sigma_hat / truth - 1.0)) <= 0.25

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    def test_modes_above_the_dealias_band_rotate_freely(self, default_grid, scheme):
        g = default_grid
        n = g.num_points
        m = g.band
        f = SpectralField(g, soliton(g, 1.0, -10.0).half + soliton(g, 2.25, 5.0).half)
        traj = evolve(f, 0.5, SolverConfig(dt=1e-3, scheme=scheme, record_every=100))
        # k = m..n/2 - 1; the Nyquist entry is read by its real part
        xi, c0 = g.xi[m:n // 2], f.coeffs[m:n // 2]
        for snap, t in zip(traj.snapshots, traj.times):
            assert np.array_equal(snap.coeffs[m:n // 2], c0 * airy_phase(xi, t))

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    def test_the_band_never_reads_the_tail(self, default_grid, scheme):
        g, m = default_grid, default_grid.band
        f = two_soliton_datum(g)
        rng = np.random.default_rng(3)
        tail = 1e-3 * np.max(np.abs(f.half)) * (rng.standard_normal(f.half.size - m)
                                                + 1j * rng.standard_normal(f.half.size - m))
        loud = SpectralField(g, np.concatenate((f.half[:m], tail)))
        # the loud tail reaches the domain edge: gate off for both runs
        config = SolverConfig(dt=1e-3, scheme=scheme, record_every=7, check_boundary=False)
        quiet, loud_traj = evolve(f, 0.02, config), evolve(loud, 0.02, config)
        assert quiet.field.half[:, :m].tobytes() == loud_traj.field.half[:, :m].tobytes()
        assert not np.array_equal(quiet.field.half[:, m:], loud_traj.field.half[:, m:])

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    def test_the_tail_phase_is_evaluated_once_per_record(self, default_grid, scheme,
                                                         monkeypatch):
        calls = []

        def counted(xi, t):
            calls.append((np.size(xi), t))
            return airy_phase(xi, t)

        monkeypatch.setattr(solver, "airy_phase", counted)
        g = default_grid
        traj = evolve(two_soliton_datum(g), 0.02,
                      SolverConfig(dt=1e-3, scheme=scheme, record_every=7))
        # IFRK4 builds its band half-step phase once, before the first step
        setup = [(g.band, 0.02 / 20 / 2)] if scheme == "ifrk4" else []
        assert calls == setup + [(g.xi.size - g.band, t) for t in traj.times[1:]]

    def test_rejects_complex_data(self, small_grid):
        # a non-real field has no half-spectrum: its full array is refused
        c = np.zeros(small_grid.num_points, dtype=complex)
        c[3] = 1.0  # no Hermitian partner
        with pytest.raises(ValueError, match="half-spectrum"):
            SpectralField(small_grid, c)
