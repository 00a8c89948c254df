"""The three benchmark workloads, each one group of paper claims end to end.

A workload builds a pool of seeded inputs, warms the code paths up, and runs
claim instances.  A claim instance calls only public kdvrad functions inside
its timed region; the hard checks against the oracles run after the timed
region and never call into kdvrad's wrapped functions.

Every workload takes ``kd``, a namespace holding the freshly imported kdvrad
modules, and calls through module attributes so that the traced run sees
every call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import oracles


@dataclass
class ClaimResult:
    """One claim instance: wall time of the program calls, rates, accuracy and checks."""

    start: float
    seconds: float
    rates: dict = field(default_factory=dict)
    accuracy: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _wavepacket_samples(x, rng, reflect_x):
    """Four Gaussian wave packets; the tier-1 ``wavepacket`` family."""
    x = -x if reflect_x else x
    u = np.zeros_like(x)
    for _ in range(4):
        a = rng.uniform(0.3, 1.0)
        xm = rng.uniform(-8, 8)
        w = rng.uniform(3, 6)
        k = rng.uniform(0.4, 2.0)
        ph = rng.uniform(0, 2 * np.pi)
        u += a * np.exp(-((x - xm) / w) ** 2) * np.cos(k * x + ph)
    return u


def _band_samples(x, half_length, rng, max_mode):
    """Random real field on modes 1..max_mode under a Gaussian envelope."""
    coeffs = np.zeros(x.size, dtype=complex)
    modes = np.arange(1, max_mode + 1)
    coeffs[modes] = rng.standard_normal(max_mode) * np.exp(1j * rng.uniform(0, 2 * np.pi, max_mode))
    coeffs[-modes] = np.conj(coeffs[modes])
    return np.real(np.fft.ifft(coeffs)) * np.exp(-(x / (half_length / 3)) ** 2)


# ---------------------------------------------------------------------------
# acl_sweep: sigma^(3/4) almost conservation on wave packets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AclSizes:
    num_points: int = 1024
    half_length: float = 40.0
    sigma0: float = 0.4
    num_snapshots: int = 128
    steps_per_snapshot: int = 10
    sigmas: tuple = (0.4, 0.2, 0.1, 0.05, 0.025)
    pool: int = 8
    traced_instances: int = 4


class AclSweep:
    name = "acl_sweep"
    full = AclSizes()
    tiny = AclSizes(num_points=512, num_snapshots=16, steps_per_snapshot=4,
                    sigmas=(0.4, 0.1), pool=2, traced_instances=1)

    def __init__(self, kd, sizes: AclSizes, seed: int):
        self.kd, self.sizes = kd, sizes
        grid = kd.grid.GridSpec(sizes.num_points, sizes.half_length)
        rng = np.random.default_rng(seed)
        self.data = [kd.grid.forward_transform(_wavepacket_samples(grid.x, rng, i % 2 == 1), grid)
                     for i in range(sizes.pool)]

    def inputs(self) -> dict:
        s = self.sizes
        return {"N": s.num_points, "L": s.half_length, "sigma0": s.sigma0,
                "snapshots": s.num_snapshots, "steps_per_snapshot": s.steps_per_snapshot,
                "steps": s.num_snapshots * s.steps_per_snapshot,
                "sigmas": list(s.sigmas), "pool": s.pool}

    def warm_up(self):
        ac = self.kd.almost_conservation
        traj = ac.prepare_acl_trajectory(self.data[0], self.sizes.sigma0,
                                         num_snapshots=4, steps_per_snapshot=2)
        ac.measure_conservation(traj, self.sizes.sigma0)

    def prepare_oracles(self):
        pass

    def claim(self, i: int) -> ClaimResult:
        s, ac = self.sizes, self.kd.almost_conservation
        f = self.data[i % len(self.data)]
        t0 = perf_counter()
        traj = ac.prepare_acl_trajectory(f, s.sigma0, num_snapshots=s.num_snapshots,
                                         steps_per_snapshot=s.steps_per_snapshot)
        t1 = perf_counter()
        reports = [ac.measure_conservation(traj, sigma) for sigma in s.sigmas]
        t2 = perf_counter()
        res = ClaimResult(start=t0, seconds=t2 - t0)
        res.rates["steps_per_s"] = s.num_snapshots * s.steps_per_snapshot / (t1 - t0)
        res.rates["diag_evals_per_s"] = len(traj.snapshots) * len(s.sigmas) / (t2 - t1)
        self._check(traj, reports, res)
        return res

    def _check(self, traj, reports, res: ClaimResult):
        coeffs = [snap.coeffs for snap in traj.snapshots]
        L = self.sizes.half_length
        momentum = np.array([oracles.gevrey_energy_and_flux(c, L, 0.0)[0] for c in coeffs])
        res.checks["momentum_drift"] = bool(np.max(np.abs(momentum - momentum[0])) < 1e-8 * momentum[0])
        worst_identity = 0.0
        for rep in reports:
            energies, integral, oracle_identity = oracles.acl_oracle(coeffs, traj.times, L, rep.sigma)
            base = energies[0]
            tag = f"sigma_{rep.sigma:g}"
            res.checks[f"identity_{tag}"] = bool(rep.identity_rel < 0.05 and oracle_identity < 0.05)
            res.checks[f"defect_bound_{tag}"] = bool(rep.r_integral <= base ** 1.5 * rep.sigma ** 0.75)
            res.checks[f"oracle_defect_{tag}"] = bool(
                abs(rep.r_integral - abs(integral)) <= 1e-6 * abs(integral) + 1e-12 * base)
            res.checks[f"oracle_norms_{tag}"] = bool(
                abs(rep.rhs_base - base) <= 1e-9 * base
                and abs(rep.lhs - np.max(energies)) <= 1e-9 * np.max(energies))
            worst_identity = max(worst_identity, rep.identity_rel)
        res.accuracy["acl_identity_rel"] = worst_identity


# ---------------------------------------------------------------------------
# two_soliton: long-time solver accuracy and the time-varying radius
# ---------------------------------------------------------------------------

TWO_SOLITON_K = (1.0, 1.5)


@dataclass(frozen=True)
class TwoSolitonSizes:
    num_points: int = 1024
    half_length: float = 40.0
    horizon: float = 16.0
    dt: float = 1e-3
    record_every: int = 500
    schedule_sigma0: float = 0.5
    pool: int = 4
    traced_instances: int = 2


class TwoSoliton:
    name = "two_soliton"
    full = TwoSolitonSizes()
    tiny = TwoSolitonSizes(horizon=0.5, record_every=100, pool=1, traced_instances=1)

    def __init__(self, kd, sizes: TwoSolitonSizes, seed: int):
        self.kd, self.sizes = kd, sizes
        self.grid = kd.grid.GridSpec(sizes.num_points, sizes.half_length)
        rng = np.random.default_rng(seed)
        # soliton 1 starts ahead of the faster soliton 2; they collide near t = 12
        self.offsets = [(-8.0 + rng.uniform(-1, 1), -20.0 + rng.uniform(-1, 1))
                        for _ in range(sizes.pool)]
        self.data = [kd.grid.forward_transform(oracles.two_soliton(self.grid.x, 0.0, TWO_SOLITON_K, x0),
                                               self.grid)
                     for x0 in self.offsets]
        self.config = kd.solver.SolverConfig(dt=sizes.dt, record_every=sizes.record_every)
        self.oracle_times = self.sigma_true = None

    @property
    def steps(self) -> int:
        return max(1, int(round(self.sizes.horizon / self.sizes.dt)))

    def inputs(self) -> dict:
        s = self.sizes
        return {"N": s.num_points, "L": s.half_length, "dt": s.dt, "horizon": s.horizon,
                "steps": self.steps, "record_every": s.record_every, "scheme": self.config.scheme,
                "k": list(TWO_SOLITON_K), "offsets": [list(o) for o in self.offsets],
                "schedule_sigma0": s.schedule_sigma0, "pool": s.pool}

    def warm_up(self):
        kd = self.kd
        cfg = kd.solver.SolverConfig(dt=self.sizes.dt, record_every=10)
        traj = kd.solver.evolve(self.data[0], 20 * self.sizes.dt, cfg)
        kd.gevrey.estimate_radius(traj.snapshots[-1])

    def prepare_oracles(self):
        """True radius at every recording time: evolve records each record_every steps and at T."""
        s, n = self.sizes, self.steps
        steps = sorted(set(range(s.record_every, n + 1, s.record_every)) | {n})
        self.oracle_times = np.array([0.0] + [i * (s.horizon / n) for i in steps])
        self.sigma_true = [np.array([oracles.nearest_tau_zero(t, TWO_SOLITON_K, x0, s.half_length)
                                     for t in self.oracle_times]) for x0 in self.offsets]

    def claim(self, i: int) -> ClaimResult:
        kd, s = self.kd, self.sizes
        j = i % len(self.data)
        f = self.data[j]
        t0 = perf_counter()
        traj = kd.solver.evolve(f, s.horizon, self.config)
        t1 = perf_counter()
        gamma0 = kd.gevrey.gevrey_norm(f, kd.gevrey.GevreyParams(s.schedule_sigma0))
        params = kd.scheduler.ScheduleParams(sigma0=s.schedule_sigma0, gamma0=gamma0)
        comp = kd.scheduler.empirical_schedule(f, params, s.horizon, trajectory=traj)
        t2 = perf_counter()
        res = ClaimResult(start=t0, seconds=t2 - t0)
        res.rates["steps_per_s"] = self.steps / (t1 - t0)
        x, L = self.grid.x, s.half_length
        peak = np.max(np.abs(oracles.samples_from_coeffs(f.coeffs, L)))
        err = max(np.max(np.abs(oracles.samples_from_coeffs(snap.coeffs, L)
                                - oracles.two_soliton(x, t, TWO_SOLITON_K, self.offsets[j])))
                  for snap, t in zip(traj.snapshots, traj.times)) / peak
        if not np.allclose(traj.times, self.oracle_times, rtol=0, atol=1e-9):
            raise RuntimeError("recorded snapshot times differ from the oracle's")
        truth = self.sigma_true[j]
        rel = np.abs(comp.sigma_hat - truth) / truth
        res.accuracy["oracle_max_rel_err"] = float(err)
        res.accuracy["radius_max_rel_err"] = float(np.max(rel))
        res.info["radius_median_rel_err"] = float(np.median(rel))
        res.info["sigma_true_max"] = float(np.max(truth))
        res.checks["oracle_max_rel_err"] = bool(err < 1e-6)
        res.checks["contract_holds"] = bool(comp.contract_holds)
        return res


# ---------------------------------------------------------------------------
# dyadic_probes: xbar^s free-evolution norms and the bilinear block probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DyadicSizes:
    num_points: int = 256
    half_length: float = 40.0
    max_mode: int = 24
    window: tuple = (-2.0, 2.0)
    num_time_samples: int = 96
    s_values: tuple = (0.0, 0.5, -0.75)
    sweep_ns: tuple = (8, 16, 32, 64)
    trials: int = 32
    pool: int = 32
    traced_instances: int = 4


class DyadicProbes:
    name = "dyadic_probes"
    full = DyadicSizes()
    tiny = DyadicSizes(num_time_samples=16, sweep_ns=(8, 16), trials=16, pool=1,
                       traced_instances=1)

    def __init__(self, kd, sizes: DyadicSizes, seed: int):
        self.kd, self.sizes = kd, sizes
        grid = kd.grid.GridSpec(sizes.num_points, sizes.half_length)
        rng = np.random.default_rng(seed)
        self.data = []
        for _ in range(sizes.pool):
            fields = [kd.grid.forward_transform(_band_samples(grid.x, sizes.half_length, rng, sizes.max_mode), grid)
                      for _ in sizes.s_values]
            self.data.append((fields, int(rng.integers(2 ** 31))))

    def inputs(self) -> dict:
        s = self.sizes
        return {"N": s.num_points, "L": s.half_length, "max_mode": s.max_mode,
                "window": list(s.window), "time_samples": s.num_time_samples,
                "s_values": list(s.s_values), "sweep_ns": list(s.sweep_ns),
                "trials": s.trials, "pool": s.pool,
                "bilinear_seeds": [seed for _, seed in self.data]}

    def _triple(self, n):
        return self.kd.bilinear.DyadicTriple(2, n, n, 1, 1, 2 * n ** 2)

    def warm_up(self):
        kd = self.kd
        f = self.data[0][0][0]
        st = kd.spacetime.airy_spacetime(f, *self.sizes.window, 16)
        kd.dyadic.xbar_norm(st, 0.0)
        kd.bilinear.measure_block_ratio(self._triple(8), trials=self.sizes.trials, seed=0)
        kd.bilinear.xnorm_product_ratio(8, 8, 8, trials=self.sizes.trials, seed=0)

    def prepare_oracles(self):
        pass

    def claim(self, i: int) -> ClaimResult:
        kd, s = self.kd, self.sizes
        fields, seed = self.data[i % len(self.data)]
        t0 = perf_counter()
        norms = []
        for f, s_index in zip(fields, s.s_values):
            st = kd.spacetime.airy_spacetime(f, *s.window, s.num_time_samples)
            rep = kd.dyadic.xbar_norm(st, s_index)
            norms.append((rep, rep.xbar_s / kd.gevrey.hs_norm(f, s_index)))
        t1 = perf_counter()
        records = [kd.bilinear.measure_block_ratio(self._triple(n), trials=s.trials, seed=seed)
                   for n in s.sweep_ns]
        t2 = perf_counter()
        xnorm = [kd.bilinear.xnorm_product_ratio(n, n, n, trials=s.trials, seed=seed)
                 for n in s.sweep_ns]
        t3 = perf_counter()
        block_slope = kd.bilinear.fit_exponent(s.sweep_ns, [r.measured_lhs for r in records])
        xnorm_slope = kd.bilinear.fit_exponent(s.sweep_ns, xnorm)
        res = ClaimResult(start=t0, seconds=perf_counter() - t0)
        admissible = sum(r.trials for r in records)
        res.rates["xbar_norms_per_s"] = len(norms) / (t1 - t0)
        res.rates["probe_trials_per_s"] = admissible / (t2 - t1)
        res.accuracy["bilinear_slope_err"] = abs(block_slope + 1.0)
        res.info["block_admissible_trials"] = admissible
        res.info["block_requested_trials"] = s.trials * len(s.sweep_ns)
        res.info["xnorm_slope"] = xnorm_slope
        res.info["xnorm_sweep_s"] = t3 - t2
        res.info["xbar_ratios"] = [ratio for _, ratio in norms]
        res.checks["xbar_ratio_below_10"] = all(0.0 < ratio < 10.0 for _, ratio in norms)
        res.checks["reconstruction_defect"] = all(rep.reconstruction_defect() < 1e-10 for rep, _ in norms)
        return res


WORKLOADS = {w.name: w for w in (AclSweep, TwoSoliton, DyadicProbes)}
