"""Local-existence time, certified sigma schedule and the induction bounds."""
import numpy as np
import pytest

from kdvrad.gevrey import GevreyParams, gevrey_norm
from kdvrad.scheduler import (ScheduleParams, doubling_condition_value,
                              empirical_schedule, final_induction_state,
                              local_existence_time, sigma_for_horizon)
from kdvrad.solver import SolverConfig, evolve, soliton


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


class TestBuildSchedule:
    def test_final_bound_at_most_double(self, params):
        # the bound is affine and increasing in the step k, so the final
        # state bounds every step of the ladder
        for T in (10.0, 1e3, 1e5):
            state = final_induction_state(params, T)
            assert state.gamma_sq_bound <= 2.0 * params.gamma0 ** 2 * (1 + 1e-9)


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
