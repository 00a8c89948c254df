"""Local-existence time, certified sigma schedule and the induction bounds."""
import numpy as np
import pytest

from kdvrad.gevrey import GevreyParams, estimate_radius, gevrey_norm
from kdvrad.grid import forward_transform
from kdvrad.scheduler import (ScheduleParams, doubling_condition_value,
                              empirical_schedule, induction_bound,
                              local_existence_time, sigma_for_horizon)
from kdvrad.solver import SolverConfig, evolve, soliton

from test_solver import COLLISION_K, COLLISION_X0, two_soliton_values


@pytest.fixture
def params():
    return ScheduleParams(sigma0=1.0, gamma0=1.0, c_lwp=0.01, c_acl=1.0)


class TestLocalExistenceTime:
    def test_unit_norm(self):
        assert local_existence_time(1.0, 0.0, 0.01) == 0.01

    def test_exponent_at_s_zero(self):
        # -6/(3+2s) = -2 at s = 0
        assert local_existence_time(2.0, 0.0, 0.01) == pytest.approx(0.0025)

    def test_exponent_at_negative_s(self):
        # -6/(3 - 3/2) = -4 at s = -3/4
        assert local_existence_time(4.0, -0.75, 0.01) \
            == pytest.approx(0.01 * 4.0 ** -4)

    def test_invalid_regularity(self):
        with pytest.raises(ValueError):
            local_existence_time(1.0, -1.5, 0.01)
        with pytest.raises(ValueError):
            local_existence_time(0.0, 0.0, 0.01)

    @pytest.mark.parametrize("s", [np.inf, -np.inf, np.nan])
    def test_non_finite_regularity_is_refused_by_name(self, s):
        # s = inf gave t0 = c_lwp, and s = nan failed the 3 + 2s > 0 test
        with pytest.raises(ValueError, match=f"s must be finite, got s = {s}"):
            local_existence_time(1.0, s, 0.01)
        with pytest.raises(ValueError, match=f"s must be finite, got s = {s}"):
            ScheduleParams(sigma0=1, gamma0=1, s=s)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_schedule_inputs_must_be_finite(params, bad):
    with pytest.raises(ValueError):
        local_existence_time(bad, 0.0, 0.01)
    for name in ("sigma0", "gamma0", "c_lwp", "c_acl"):
        with pytest.raises(ValueError):
            ScheduleParams(**{"sigma0": 1.0, "gamma0": 1.0, name: bad})
    for horizon in (bad, np.array([1.0, bad])):
        with pytest.raises(ValueError):
            sigma_for_horizon(params, horizon)


class TestSigmaForHorizon:
    def test_equality_at_returned_sigma(self, params):
        for T in (10.0, 100.0, 1000.0):
            s = sigma_for_horizon(params, T)
            assert s < params.sigma0
            assert doubling_condition_value(params, T, s) \
                == pytest.approx(1.0, abs=1e-12)

    def test_doubling_horizon_scales_exactly(self, params):
        s1 = sigma_for_horizon(params, 50.0)
        s2 = sigma_for_horizon(params, 100.0)
        assert s2 / s1 == pytest.approx(2.0 ** (-4.0 / 3.0), rel=1e-13)

    def test_short_horizon_clamps_to_sigma0(self, params):
        assert sigma_for_horizon(params, 1e-9) == params.sigma0

    def test_power_law_slope_machine_exact(self, params):
        horizons = np.array([10.0, 100.0, 1000.0, 10000.0])
        sigmas = np.array([sigma_for_horizon(params, T) for T in horizons])
        slope = np.polyfit(np.log(horizons), np.log(sigmas), 1)[0]
        assert slope == pytest.approx(-4.0 / 3.0, abs=1e-12)

    def test_monotone_in_horizon(self, params):
        values = [sigma_for_horizon(params, T) for T in np.logspace(-3, 5, 40)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_array_equals_scalar_calls(self, params):
        # horizons on both sides of the sigma0 clamp, at T = t0 / 2^(5/2) here
        horizons = np.logspace(-3, 5, 97)
        scalars = np.array([sigma_for_horizon(params, float(T)) for T in horizons])
        assert sigma_for_horizon(params, horizons).tobytes() == scalars.tobytes()
        assert np.any(scalars == params.sigma0) and np.any(scalars < params.sigma0)


class TestBuildSchedule:
    def test_final_bound_at_most_double(self, params):
        # the bound is affine and increasing in the step k, so the final
        # state bounds every step of the ladder
        for T in (10.0, 1e3, 1e5):
            assert induction_bound(params, T) <= 2.0 * params.gamma0 ** 2 * (1 + 1e-9)


class TestEmpiricalSchedule:
    def test_soliton_radius_dominates_certified_curve(self, default_grid):
        f = soliton(default_grid, 1.0)
        sigma0 = 1.0
        gamma0 = gevrey_norm(f, GevreyParams(sigma0, 0.0))
        params = ScheduleParams(sigma0=sigma0, gamma0=gamma0,
                                c_lwp=0.01, c_acl=1.0)
        comp = empirical_schedule(
            f, params, 0.5, SolverConfig(dt=1e-3, record_every=100))
        assert comp.contract_holds
        # soliton keeps its pole distance: the estimate stays near pi
        assert np.all(np.abs(comp.sigma_hat - np.pi) < 0.05 * np.pi)
        assert np.all(comp.sigma_certified <= comp.sigma_hat)
        assert np.all(comp.within_doubling)

    def test_l2_row_constant(self, default_grid):
        # the sigma = 0 row of the comparison table is the conserved L2 norm
        f = soliton(default_grid, 1.0)
        traj = evolve(f, 0.2, SolverConfig(dt=1e-3, record_every=50))
        l2 = np.array([gevrey_norm(s, GevreyParams(0.0, 0.0))
                       for s in traj.snapshots])
        assert np.max(np.abs(l2 - l2[0])) / l2[0] < 1e-8


def per_record_schedule(params, traj):
    """The per-record formula in Python floats: one clamped sigma(T) and one last
    induction step k = floor(T/t0) + 1 per record, T = max(t, t0), sigma0 below t0."""
    t0, base = params.t0, params.gamma0 ** 2
    c0 = (t0 / (2.0 ** 2.5 * params.c_acl * params.gamma0)) ** (4.0 / 3.0)
    rows, violations = [], []
    for t, snap in zip(traj.times, traj.snapshots):
        t = float(t)
        cert = params.sigma0 if t < t0 else min(params.sigma0, c0 * t ** (-4.0 / 3.0))
        reach = max(t, t0)
        sigma = min(params.sigma0, c0 * reach ** (-4.0 / 3.0))
        k = int(np.floor(reach / t0)) + 1
        bound = base + k * (2.0 ** 1.5 * params.c_acl * sigma ** 0.75 * params.gamma0 ** 3)
        hat = estimate_radius(snap).sigma_hat
        gam = gevrey_norm(snap, GevreyParams(cert, params.s))
        rows.append((t, cert, hat, gam, bound, bound <= 2.0 * base * (1 + 1e-12)))
        if hat < cert:
            violations.append({"time": t, "sigma_hat": hat, "sigma_certified": cert,
                               "gamma_measured": gam, "params": params})
    return [np.array(column) for column in zip(*rows)], violations


@pytest.fixture(scope="module")
def schedule_runs(default_grid):
    """The c = 1 soliton to t = 0.5 and the 2-soliton collision to t = 6."""
    g = default_grid
    pair = forward_transform(two_soliton_values(g.x, 0.0, COLLISION_K, COLLISION_X0), g)
    return {"soliton": evolve(soliton(g, 1.0), 0.5, SolverConfig(dt=1e-3, record_every=100)),
            "collision": evolve(pair, 6.0, SolverConfig(dt=1e-3, record_every=500))}


@pytest.mark.parametrize("datum, widths", [("soliton", (1e-3, 3.1)),
                                           ("collision", (1e-3, 2.5))])
def test_empirical_schedule_matches_per_record_formula(schedule_runs, datum, widths):
    # the small sigma0 puts records on both sides of t0 and of the sigma0 clamp across
    # c_lwp; the large one, above the true radius, makes records violate the contract
    traj = schedule_runs[datum]
    f = traj.snapshots[0]
    below_t0 = clamped = unclamped = violated = False
    for sigma0 in widths:
        gamma0 = gevrey_norm(f, GevreyParams(sigma0))
        for c_lwp in (0.01, 1.0, 100.0):
            params = ScheduleParams(sigma0=sigma0, gamma0=gamma0, c_lwp=c_lwp)
            comp = empirical_schedule(f, params, traj.times[-1], trajectory=traj)
            (times, cert, hat, gam, bound, doubling), violations = \
                per_record_schedule(params, traj)
            for got, want in ((comp.times, times), (comp.sigma_certified, cert),
                              (comp.sigma_hat, hat), (comp.gamma_measured, gam),
                              (comp.gamma_sq_bound, bound), (comp.within_doubling, doubling)):
                assert got.tobytes() == want.tobytes()
            assert comp.violations == violations
            past = times >= params.t0
            below_t0 |= not np.all(past)
            clamped |= np.any(cert[past] == sigma0)
            unclamped |= np.any(cert[past] < sigma0)
            violated |= bool(violations)
    assert below_t0 and clamped and unclamped and violated
