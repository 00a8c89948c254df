"""Commutator term, work-integral defect and the multiplier bound chain."""
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from kdvrad import almost_conservation, grid
from kdvrad.almost_conservation import (commutator_term, measure_conservation,
                                        prepare_acl_trajectory, smoothing_multiplier_bounds)
from kdvrad.dyadic import xbar_norm
from kdvrad.errors import KdvradError, SpectralOverflowError
from kdvrad.gevrey import GevreyParams, gevrey_norm, smooth
from kdvrad.grid import GridSpec, SpectralField, forward_transform
from kdvrad.scheduler import ScheduleParams, empirical_schedule
from kdvrad.solver import (SolverConfig, Trajectory, classical_invariants,
                           evolve, soliton)
from kdvrad.spacetime import airy_spacetime, spacetime_transform

from conftest import (airy_propagate, complex_dealiased_product, fft_order_k,
                      inverse_spacetime_transform, keep_mask_formula, project_pn, project_ql,
                      random_band_field)


def wavepacket(grid, seed, reflect_x=False):
    """Localized analytic test datum; reflection flips the initial Gevrey flux."""
    rng = np.random.default_rng(seed)
    x = -grid.x if reflect_x else grid.x
    f = np.zeros_like(x)
    for _ in range(4):
        a = rng.uniform(0.3, 1.0)
        xm = rng.uniform(-8, 8)
        w = rng.uniform(3, 6)
        k = rng.uniform(0.4, 2.0)
        ph = rng.uniform(0, 2 * np.pi)
        f += a * np.exp(-((x - xm) / w) ** 2) * np.cos(k * x + ph)
    return forward_transform(f, grid)


def convolution_oracle(w, sigma, fraction=2.0 / 3.0):
    """Brute-force commutator over all pairs of the dealias band |k| <= K:

    f_hat(xi) = (i xi / 2) * (1/2pi) sum_{xi1+xi2=xi} dxi
                [1 - exp(-sigma(|xi1|+|xi2|-|xi1+xi2|))] w_hat(xi1) w_hat(xi2),

    with the symbol taken as -expm1(-r) and both factors and xi on the band.
    """
    g = w.grid
    n = g.num_points
    K = int(np.max(np.abs(fft_order_k(g)[keep_mask_formula(g, fraction)])))
    k = np.arange(-K, K + 1)
    k2 = k[:, None] - k[None, :]                      # output row, first factor column
    c2 = np.where(np.abs(k2) <= K, w.coeffs[k2 % n], 0.0)
    r = sigma * g.dxi * (np.abs(k)[None, :] + np.abs(k2) - np.abs(k)[:, None])
    acc = np.sum(-np.expm1(-r) * w.coeffs[k % n][None, :] * c2, axis=1)
    out = np.zeros(n, dtype=complex)
    out[k % n] = 0.5j * g.dxi * k * acc * g.dxi / (2 * np.pi)
    return SpectralField(g, out[:n // 2 + 1])


def smoothed_soliton_coeffs(grid, sigma):
    """Exact w_hat = exp(sigma|xi|) * 12 pi xi / sinh(pi xi) of the c = 1 soliton."""
    xi = grid.xi
    safe = np.where(xi == 0, 1.0, xi)
    sech2 = np.where(xi == 0, 12.0, 12.0 * np.pi * safe / np.sinh(np.pi * safe))
    return np.exp(sigma * xi) * sech2


def per_snapshot_report(traj, sigma):
    """The ``ConservationReport`` fields but ``floor_rel``, one snapshot at a time."""
    w = [smooth(s, sigma) for s in traj.snapshots]
    energy = [wi.l2_norm() ** 2 for wi in w]
    flux = [2.0 * traj.grid.inner(wi.half, commutator_term(wi, sigma).half) for wi in w]
    integral = float(np.trapezoid(flux, traj.times))
    identity_abs = float(abs(energy[-1] - energy[0] - integral))
    lhs, base = float(max(energy)), float(energy[0])
    return {"sigma": sigma, "interval": (float(traj.times[0]), float(traj.times[-1])),
            "lhs": lhs, "rhs_base": base, "error_measured": max(lhs - base, 0.0),
            "r_integral": abs(integral), "bound_cubed": base ** 1.5,
            "identity_rel": identity_abs / max(abs(integral), 1e-300),
            "identity_abs": identity_abs}


def per_snapshot_overflow(traj, sigma):
    """The ``SpectralOverflowError`` one snapshot at a time: every lift, then the energies."""
    with pytest.raises(SpectralOverflowError) as exc:
        w = [smooth(s, sigma) for s in traj.snapshots]
        with np.errstate(over="ignore"):
            energy = np.array([wi.l2_norm() ** 2 for wi in w])
        gevrey_norm(traj.snapshots[np.flatnonzero(~np.isfinite(energy))[0]],
                    GevreyParams(sigma))
    return exc.value


def per_snapshot_residual(traj, sigma):
    """The smoothed-flow equation oracle: max over interior snapshots of
    ||w_t + w_xxx + w w_x - f(w)||_L2, w = exp(sigma|D|) u, w_t by centred differences.
    A small value certifies that ``commutator_term`` is the true f(w)."""
    g, t, worst = traj.grid, traj.times, 0.0
    ixi = 1j * g.xi
    w = [smooth(s, sigma) for s in traj.snapshots]
    for i in range(1, len(w) - 1):
        w_t = (w[i + 1].half - w[i - 1].half) * (1.0 / (t[i + 1] - t[i - 1]))
        w_wx = ixi * complex_dealiased_product(w[i], w[i]).half * 0.5
        resid = w_t + ixi ** 3 * w[i].half + w_wx - commutator_term(w[i], sigma).half
        worst = max(worst, float(SpectralField(g, resid).l2_norm()))
    return worst


def without_floor(report):
    fields = asdict(report)
    del fields["floor_rel"]
    return fields


def count_real_ffts(monkeypatch, lengths=None):
    """Count kdvrad.grid.rfft / irfft calls into the returned dict; with a ``lengths`` list,
    also append each call's (name, number of real samples) to it."""
    calls = {"rfft": 0, "irfft": 0}
    for name in calls:
        def counted(*args, _name=name, _fft=getattr(grid, name), **kwargs):
            calls[_name] += 1
            out = _fft(*args, **kwargs)
            if lengths is not None:
                lengths.append((_name, np.shape(out if _name == "irfft" else args[0])[-1]))
            return out

        monkeypatch.setattr(grid, name, counted)
    return calls


@pytest.fixture(scope="module")
def acl_grid():
    return GridSpec(1024, 40.0)


@pytest.fixture(scope="module")
def packet_trajectory(acl_grid):
    """Short dense trajectory of a seeded wavepacket (shared across tests).

    Seed 12 with reflection has strictly positive initial Gevrey flux for the
    whole sigma sweep (checked in test_sweep_monotone_and_positive).
    """
    f = wavepacket(acl_grid, 12, reflect_x=True)
    return prepare_acl_trajectory(f, sigma0=0.4, num_snapshots=64)


class TestCommutatorTerm:
    def test_sigma_zero_is_exactly_zero(self, acl_grid, rng):
        w = random_band_field(acl_grid, rng)
        out = commutator_term(w, 0.0)
        assert np.max(np.abs(out.coeffs)) <= 1e-13

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_refuses_non_finite_sigma(self, acl_grid, rng, sigma):
        with pytest.raises(ValueError):
            commutator_term(random_band_field(acl_grid, rng), sigma)

    @pytest.mark.parametrize("dealias", [0.0, -0.5, 1.5])
    def test_refuses_dealias_outside_the_unit_interval(self, acl_grid, rng, dealias):
        # dealias <= 0 would return a zero flux, > 1 keep the aliased part of the product
        with pytest.raises(ValueError):
            commutator_term(random_band_field(acl_grid, rng), 0.3, dealias)

    def test_sigma_zero_computes_no_product(self, acl_grid, rng, monkeypatch):
        # FFT budget: none at sigma = 0, one batched irfft and one rfft otherwise, both on
        # 768 points: the 2m - 1 = 683 that carry the product unaliased, rounded up to 3 * 2^8
        w = random_band_field(acl_grid, rng)
        lengths = []
        calls = count_real_ffts(monkeypatch, lengths)
        commutator_term(w, 0.0)
        assert calls == {"rfft": 0, "irfft": 0}
        commutator_term(w, 0.1)
        assert calls == {"rfft": 1, "irfft": 1}
        assert lengths == [("irfft", 768), ("rfft", 768)]

    def test_single_mode_self_interaction_vanishes(self, acl_grid):
        # same-sign frequencies: |2 xi0| = 2 |xi0| so the symbol is zero
        g = acl_grid
        xi0 = 16 * np.pi / g.half_length
        w = forward_transform(np.cos(xi0 * g.x), g)
        out = commutator_term(w, 0.3)
        assert np.max(np.abs(out.coeffs)) < 1e-12 * np.max(np.abs(w.coeffs))

    def test_two_mode_field_matches_convolution_oracle(self):
        g = GridSpec(256, 40.0)
        xi0 = 8 * np.pi / g.half_length
        w = forward_transform(np.cos(xi0 * g.x) + np.cos(3 * xi0 * g.x), g)
        sigma = 0.25
        fast = commutator_term(w, sigma, dealias=1.0)
        slow = convolution_oracle(w, sigma, 1.0)
        scale = np.max(np.abs(slow.coeffs))
        assert np.max(np.abs(fast.coeffs - slow.coeffs)) < 1e-10 * scale
        # the mixed interaction (xi1, xi2) = (-xi0, 3 xi0) lands at 2 xi0
        # with symbol factor 1 - exp(-2 sigma xi0)
        k2 = 16
        expected = 0.5j * g.xi[k2] * (1 - np.exp(-2 * sigma * xi0)) \
            * 2.0 * (0.5 * 2 * g.half_length) ** 2 / (2 * np.pi) \
            * (np.pi / g.half_length)
        assert fast.coeffs[k2] == pytest.approx(expected, rel=1e-8)

    def test_oracle_on_random_field(self, rng):
        g = GridSpec(128, 20.0)
        w = random_band_field(g, rng, max_mode=12)
        # band-limit so the circular and truncated convolutions coincide
        w.half[g.k_index > 20] = 0.0
        fast = commutator_term(w, 0.15, dealias=1.0)
        slow = convolution_oracle(w, 0.15, 1.0)
        scale = max(np.max(np.abs(slow.coeffs)), 1e-300)
        assert np.max(np.abs(fast.coeffs - slow.coeffs)) < 1e-10 * scale

    @pytest.mark.parametrize("dealias", [2.0 / 3.0, 0.5])
    def test_oracle_on_full_band_data(self, dealias):
        # every band coefficient O(1), so the product fills |k| < m and a transform on fewer
        # than 2m - 1 points aliases onto the band; smoothed data decays too fast to show it
        g = GridSpec(256, 40.0)
        rng = np.random.default_rng(11)
        m = int(np.count_nonzero(keep_mask_formula(g, dealias)[:g.num_points // 2 + 1]))
        half = np.zeros(g.num_points // 2 + 1, dtype=complex)
        half[:m] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        w = SpectralField(g, half)
        for sigma in (0.05, 0.4):
            ref = convolution_oracle(w, sigma, dealias).coeffs
            got = commutator_term(w, sigma, dealias).coeffs
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_smooth_based_formula(self, seed):
        # the unsmooth / product / lift / derivative chain written with full
        # complex FFTs and the smoothing operator
        g = GridSpec(256, 40.0)
        w = random_band_field(g, np.random.default_rng(seed))
        for sigma in (0.025, 0.1, 0.4):
            wm = smooth(w, -sigma)
            lifted = smooth(complex_dealiased_product(wm, wm), sigma)
            ref = g.from_half(complex_dealiased_product(w, w).half - lifted.half) \
                * (0.5j * np.pi * fft_order_k(g) / g.half_length)
            got = commutator_term(w, sigma).coeffs
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_finite_with_no_raise_at_any_sigma(self, acl_grid):
        # no factor is lifted by exp(+sigma|xi|), so nothing can overflow
        w = soliton(acl_grid, 1.0)
        for sigma in (5.0, 20.0, 26.0, 30.0, 100.0):
            assert np.all(np.isfinite(commutator_term(w, sigma).coeffs))

    @pytest.mark.parametrize("sigma", [0.4, 1.0, 2.0, 3.0])
    def test_matches_symbol_oracle_on_closed_form_coefficients(self, acl_grid, sigma):
        # exact w = exp(sigma|D|) u of the c = 1 soliton, so w carries no roundoff floor
        w = SpectralField(acl_grid, smoothed_soliton_coeffs(acl_grid, sigma))
        ref = convolution_oracle(w, sigma).coeffs
        got = commutator_term(w, sigma).coeffs
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_symbol_nonnegative_and_bounded(self):
        xi1, xi2 = np.meshgrid(np.linspace(-30, 30, 121),
                               np.linspace(-30, 30, 121))
        sigma = 0.2
        r = sigma * (np.abs(xi1) + np.abs(xi2) - np.abs(xi1 + xi2))
        sym = 1.0 - np.exp(-r)
        assert np.all(sym >= 0.0)
        bound = (sigma * 2 * np.minimum(np.abs(xi1), np.abs(xi2))) ** 0.75
        assert np.all(sym <= bound + 1e-14)


class TestStackedField:
    """A stack of fields gives, row by row, bitwise what each field gives alone."""

    @pytest.fixture(scope="class")
    def packets(self, acl_grid):
        fields = [wavepacket(acl_grid, seed, reflect_x=seed % 2 == 1) for seed in range(5)]
        return fields, SpectralField(acl_grid, np.stack([f.half for f in fields]))

    def test_smooth_and_commutator(self, packets):
        fields, stack = packets
        for sigma in (0.1, 0.4):
            w = smooth(stack, sigma)
            flux = commutator_term(w, sigma)
            for i, f in enumerate(fields):
                wi = smooth(f, sigma)
                assert w.half[i].tobytes() == wi.half.tobytes()
                assert flux.half[i].tobytes() == commutator_term(wi, sigma).half.tobytes()

    def test_l2_norm_and_classical_invariants(self, packets):
        fields, stack = packets
        norms, invariants = stack.l2_norm(), classical_invariants(stack)
        for i, f in enumerate(fields):
            assert norms[i] == f.l2_norm()
            assert tuple(v[i] for v in invariants) == classical_invariants(f)


class TestModifiedResidual:
    """The residual of the smoothed (modified) flow equation, ``per_snapshot_residual``."""

    def test_sigma_zero_is_solver_residual(self, packet_trajectory):
        assert per_snapshot_residual(packet_trajectory, 0.0) < 1e-6

    def test_linear_flow_residual(self, acl_grid):
        f = wavepacket(acl_grid, 5)
        # 21 snapshots of the free (Airy) flow, 2e-6 apart: check consistency
        # of the centred time derivative with the linear generator directly
        t = np.arange(21) * (4e-5 / 20)
        w = [airy_propagate(f, ti).half for ti in t]
        ixi = 1j * acl_grid.xi
        worst = 0.0
        for i in range(1, len(w) - 1):
            w_t = (w[i + 1] - w[i - 1]) * (1.0 / (t[i + 1] - t[i - 1]))
            resid = SpectralField(acl_grid, w_t + ixi ** 3 * w[i]).l2_norm()
            worst = max(worst, resid)
        assert worst < 1e-8

    def test_second_order_in_snapshot_spacing(self, acl_grid):
        f = wavepacket(acl_grid, 5)
        fine = prepare_acl_trajectory(f, 0.2, num_snapshots=64)
        coarse = Trajectory(fine.times[::2], fine.field[::2])
        r_fine = per_snapshot_residual(fine, 0.2)
        r_coarse = per_snapshot_residual(coarse, 0.2)
        assert r_coarse / r_fine >= 3.5

    def test_needs_three_snapshots(self, acl_grid):
        f = wavepacket(acl_grid, 5)
        traj = evolve(f, 2e-4, SolverConfig(dt=1e-4, record_every=1))
        short = Trajectory(traj.times[:2], traj.field[:2])
        # the work-integral quadrature, like the centred difference, needs three
        with pytest.raises(KdvradError, match="3 snapshots"):
            measure_conservation(short, 0.1)


class TestConservationDefect:
    def test_sigma_zero_recovers_l2_conservation(self, packet_trajectory):
        rep = measure_conservation(packet_trajectory, 0.0)
        assert rep.r_integral < 1e-10
        _, mom, _ = classical_invariants(packet_trajectory.field)
        assert np.max(np.abs(mom - mom[0])) / mom[0] < 1e-8

    def test_energy_identity(self, packet_trajectory):
        rep = measure_conservation(packet_trajectory, 0.1)
        assert rep.identity_rel < 0.05

    def test_energies_reuse_the_smoothed_snapshots(self, packet_trajectory, monkeypatch):
        calls = []
        original = almost_conservation.gevrey_norm

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(almost_conservation, "gevrey_norm", counted)
        rep = measure_conservation(packet_trajectory, 0.2)
        assert len(calls) == 0
        energies = [smooth(s, 0.2).l2_norm() ** 2 for s in packet_trajectory.snapshots]
        assert (rep.lhs, rep.rhs_base) == (max(energies), energies[0])

    def test_one_commutator_and_one_fft_pair_per_block(self, acl_grid, monkeypatch):
        # 33 snapshots are ceil(33 / 16) = 3 blocks of the sweep
        traj = prepare_acl_trajectory(wavepacket(acl_grid, 12, reflect_x=True), 0.4,
                                      num_snapshots=32)
        assert len(traj) == 33
        expected = per_snapshot_report(traj, 0.2)
        commutator_calls = []
        original = almost_conservation.commutator_term

        def counted(*args):
            commutator_calls.append(args)
            return original(*args)

        monkeypatch.setattr(almost_conservation, "commutator_term", counted)
        calls = count_real_ffts(monkeypatch)
        rep = measure_conservation(traj, 0.2)
        assert len(commutator_calls) == 3 and calls == {"rfft": 3, "irfft": 3}
        assert without_floor(rep) == expected

    @pytest.mark.parametrize("sigma", [0.025, 0.1, 0.4])
    def test_blocks_equal_the_per_snapshot_loop(self, packet_trajectory, sigma):
        assert without_floor(measure_conservation(packet_trajectory, sigma)) \
            == per_snapshot_report(packet_trajectory, sigma)

    def test_roundoff_floor_rises_with_sigma_on_the_sampled_soliton(self, acl_grid):
        traj = prepare_acl_trajectory(soliton(acl_grid, 1.0), 0.4, num_snapshots=8)
        sigmas = (0.4, 1.0, 2.0)
        reports = [measure_conservation(traj, s) for s in sigmas]
        floors = [rep.floor_rel for rep in reports]
        assert 0.0 < floors[0] < floors[1] < floors[2]
        # eps max|u_hat| exp(sigma xi_band) / max|w_hat|, maxima over the 2/3 band |k| < m
        band = keep_mask_formula(acl_grid)[:acl_grid.num_points // 2 + 1]
        xi_band = np.max(acl_grid.xi[band])
        for sigma, rep in zip(sigmas, reports):
            ratio = max(np.max(np.abs(s.half[band])) / np.max(np.abs(smooth(s, sigma).half[band]))
                        for s in traj.snapshots)
            assert rep.floor_rel == pytest.approx(
                np.finfo(float).eps * np.exp(sigma * xi_band) * ratio, rel=1e-12)
            assert without_floor(rep) == per_snapshot_report(traj, sigma)
        # the sampled soliton smoothed at sigma = 2 is roundoff at the band edge
        assert floors[0] < 1e-9 < 1.0 < floors[2]

    def test_a_zero_snapshot_adds_no_floor_and_no_warning(self, acl_grid):
        zero = evolve(forward_transform(np.zeros(acl_grid.num_points), acl_grid), 1e-3,
                      SolverConfig(dt=1e-4, record_every=2))
        soli = prepare_acl_trajectory(soliton(acl_grid, 1.0), 0.4, num_snapshots=8)
        half = soli.field.half.copy()
        half[3] = 0.0  # one zero snapshot inside the soliton's one block
        mixed = Trajectory(soli.times, SpectralField(acl_grid, half))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert measure_conservation(zero, 0.4).floor_rel == 0.0
            rep = measure_conservation(mixed, 0.4)
        # the floor of the other snapshots, as in the sampled-soliton test
        band = keep_mask_formula(acl_grid)[:acl_grid.num_points // 2 + 1]
        xi_band = np.max(acl_grid.xi[band])
        ratio = max(np.max(np.abs(s.half[band])) / np.max(np.abs(smooth(s, 0.4).half[band]))
                    for i, s in enumerate(mixed.snapshots) if i != 3)
        assert rep.floor_rel == pytest.approx(
            np.finfo(float).eps * np.exp(0.4 * xi_band) * ratio, rel=1e-12)

    def test_energy_overflow_is_typed(self, acl_grid):
        traj = prepare_acl_trajectory(soliton(acl_grid, 1.0), 0.1, num_snapshots=4,
                                      steps_per_snapshot=2)
        with pytest.raises(SpectralOverflowError):
            measure_conservation(traj, 10.0)

    def test_overflow_is_raised_as_one_snapshot_at_a_time(self, acl_grid):
        soli = prepare_acl_trajectory(soliton(acl_grid, 1.0), 0.1, num_snapshots=20,
                                      steps_per_snapshot=2)
        # lifts that overflow only in the second block: first on row 19, whose spike is the
        # smaller, so its certifiable sigma is larger than row 20's
        spikes = np.repeat(soli.field.half[-1:], 3, axis=0)
        spikes[1:, -2] = (1e150, 1e160)
        field = SpectralField(acl_grid, np.concatenate((soli.field.half[:18], spikes)))
        mixed = Trajectory(soli.times[:21], field)
        # sigma = 10: the energy overflows first (gevrey_norm's certifiable sigma);
        # 20: the lift (smooth's); the mixed stack: row 19's lift, not row 0's energy
        for traj, sigma in ((soli, 10.0), (soli, 20.0), (mixed, 10.0)):
            expected = per_snapshot_overflow(traj, sigma)
            with pytest.raises(SpectralOverflowError) as exc:
                measure_conservation(traj, sigma)
            assert exc.value.certifiable_sigma == expected.certifiable_sigma
            assert str(exc.value) == str(expected)

    def test_sweep_monotone_and_positive(self, packet_trajectory):
        sigmas = [0.4, 0.2, 0.1, 0.05, 0.025]
        reports = [measure_conservation(packet_trajectory, s) for s in sigmas]
        values = [r.r_integral for r in reports]
        errors = [r.error_measured for r in reports]
        # defect decreases monotonically to zero as sigma -> 0 on this datum
        assert all(values[i] > values[i + 1] for i in range(len(values) - 1))
        assert all(e > 1e-12 for e in errors)

    def test_sigma_exponent_at_least_three_quarters(self, packet_trajectory):
        sigmas = np.array([0.4, 0.2, 0.1, 0.05, 0.025])
        errors = np.array([measure_conservation(packet_trajectory, s).error_measured
                           for s in sigmas])
        slope = np.polyfit(np.log(sigmas), np.log(errors), 1)[0]
        assert slope >= 0.70

    def test_soliton_defect_degenerate(self, acl_grid):
        # |u_hat| of a traveling wave is time-invariant, so every Gevrey norm
        # is conserved and the defect sits at the numerical floor
        f = soliton(acl_grid, 1.0)
        traj = prepare_acl_trajectory(f, 0.4, num_snapshots=32)
        for s in (0.4, 0.1):
            rep = measure_conservation(traj, s)
            assert rep.error_measured <= 1e-8 * rep.rhs_base
            assert rep.error_measured <= rep.bound_cubed * s ** 0.75


def refuse_complex_fft(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("complex FFT on a real-field path")

    monkeypatch.setattr(np.fft, "fft", refuse)
    monkeypatch.setattr(np.fft, "ifft", refuse)


def complex_fft_along_tau_only(monkeypatch):
    """Let np.fft.fft / ifft run only along axis 0 of a 2-D array; count those calls."""
    calls = []
    for name in ("fft", "ifft"):
        def along_tau(a, n=None, axis=-1, *args, _name=name, _fft=getattr(np.fft, name), **kwargs):
            if np.ndim(a) != 2 or axis != 0:
                raise AssertionError(f"complex {_name} off the tau axis")
            calls.append(_name)
            return _fft(a, n, axis, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, along_tau)
    return calls


class TestRealFftOnly:
    def test_no_complex_fft_on_the_diagnostic_paths(self, acl_grid, monkeypatch):
        f = wavepacket(acl_grid, 12, reflect_x=True)
        refuse_complex_fft(monkeypatch)
        traj = prepare_acl_trajectory(f, sigma0=0.4, num_snapshots=8)
        for sigma in (0.0, 0.1):
            measure_conservation(traj, sigma)
        classical_invariants(traj.snapshots[-1])

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    def test_no_complex_fft_in_evolve_or_the_schedule(self, acl_grid, monkeypatch, scheme):
        f = wavepacket(acl_grid, 12, reflect_x=True)
        refuse_complex_fft(monkeypatch)
        config = SolverConfig(dt=1e-3, scheme=scheme, record_every=10, check_boundary=True)
        traj = evolve(f, 0.05, config)
        empirical_schedule(f, ScheduleParams(sigma0=0.4, gamma0=1.0), 0.05, trajectory=traj)

    def test_space_time_layer_is_complex_along_tau_only(self, monkeypatch):
        g = GridSpec(256, 40.0)
        f = random_band_field(g, np.random.default_rng(3), max_mode=24)
        calls = complex_fft_along_tau_only(monkeypatch)
        st = airy_spacetime(f, -2.0, 2.0, 64)
        xbar_norm(st, 0.5)
        # the low block is a multiplier in xi alone: no tau round trip
        assert calls == ["fft"]
        project_ql(st, 4)
        project_pn(f, 4)
        inverse_spacetime_transform(spacetime_transform(st))
        assert calls.count("fft") == 3 and calls.count("ifft") == 2

    def test_space_time_rows_need_no_x_transform(self, monkeypatch):
        # the Airy rows are half-spectra and the norm reads them as they are: the low block's
        # samples are the one real FFT of the pair
        g = GridSpec(256, 40.0)
        f = random_band_field(g, np.random.default_rng(3), max_mode=24)
        calls = count_real_ffts(monkeypatch)
        xbar_norm(airy_spacetime(f, -2.0, 2.0, 96), 0.5)
        assert calls == {"rfft": 0, "irfft": 1}

    @pytest.mark.parametrize("scheme", ["ifrk4", "etdrk4"])
    def test_one_irfft_and_one_rfft_per_stage(self, acl_grid, monkeypatch, scheme):
        # two runs with the same snapshots, 10 steps apart: 4 stages x 10 steps
        f = wavepacket(acl_grid, 12, reflect_x=True)
        calls = count_real_ffts(monkeypatch)
        config = SolverConfig(dt=1e-3, scheme=scheme, record_every=10 ** 9)
        counts = []
        for steps in (10, 20):
            before = dict(calls)
            traj = evolve(f, steps * config.dt, config)
            assert len(traj) == 2
            counts.append({name: calls[name] - before[name] for name in calls})
        assert {name: counts[1][name] - counts[0][name] for name in calls} \
            == {"rfft": 40, "irfft": 40}


class TestMultiplierBounds:
    def test_same_sign_vanishes(self):
        lhs, rhs1, _ = smoothing_multiplier_bounds(3.0, 5.0, 0.7)
        assert lhs == 0.0 and rhs1 == 0.0

    def test_worked_example(self):
        lhs, rhs1, rhs2 = smoothing_multiplier_bounds(-1.0, 10.0, 0.5)
        assert lhs == pytest.approx(1 - np.exp(-1.0), rel=1e-12)
        assert rhs1 == pytest.approx(1.0, rel=1e-12)
        assert rhs2 == pytest.approx(1.0, rel=1e-12)

    def test_chain_on_grid(self):
        xi = np.arange(-50, 50.25, 0.25)
        x1, x2 = np.meshgrid(xi, xi)
        for sigma in (0.01, 0.1, 1.0):
            lhs, rhs1, rhs2 = smoothing_multiplier_bounds(x1, x2, sigma)
            assert np.all(lhs <= rhs1 + 1e-14)
            assert np.all(rhs1 <= rhs2 + 1e-14)
