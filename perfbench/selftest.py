"""Fast self-test of the benchmark itself (a few seconds).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches the metrics the code emits, that every
workload at tiny size prints every named metric with a finite value and its
unit, that the run refuses a directory without the program, and that each
oracle rejects a perturbed input.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest

import run

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402


def run_tiny(workload, trace, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


class TestContract(unittest.TestCase):
    def test_benchmark_json_matches_code(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         run.PER_LAYER)
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))

    def test_every_workload_emits_every_metric(self):
        for name in workloads.WORKLOADS:
            for trace, expected in ((0, run.END_TO_END),
                                    (1, {k: unit for k, (unit, _) in run.PER_LAYER.items()})):
                with self.subTest(workload=name, trace=trace):
                    proc = run_tiny(name, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), set(expected))
                    for metric, value in result["metrics"].items():
                        self.assertTrue(math.isfinite(value["value"]), metric)
                        self.assertEqual(value["unit"], expected[metric])
                    if trace == 0:
                        manifest = json.loads((run.OUT_DIR / f"{name}-seed3-trace0.json").read_text())
                        report = manifest["results"]["report"]
                        self.assertEqual(set(report), set(run.REPORT))
                        for metric, (unit, applies) in run.REPORT.items():
                            self.assertEqual(report[metric]["unit"], unit)
                            if applies == "all" or name in applies:
                                self.assertTrue(math.isfinite(report[metric]["value"]), metric)

    def test_refuses_a_directory_without_the_program(self):
        bare = run.OUT_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = run_tiny("acl_sweep", 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class TestOracles(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.kd = run.import_kdvrad()

    def test_two_soliton_oracle_rejects_a_shifted_solution(self):
        kd, k = self.kd, workloads.TWO_SOLITON_K
        grid = kd.grid.GridSpec(1024, 40.0)
        x0 = (-8.0, -20.0)
        f = kd.grid.forward_transform(oracles.two_soliton(grid.x, 0.0, k, x0), grid)
        traj = kd.solver.evolve(f, 0.5, kd.solver.SolverConfig(dt=1e-3, record_every=250))
        u = oracles.samples_from_coeffs(traj.snapshots[-1].coeffs, 40.0)
        peak = np.max(np.abs(u))
        exact = oracles.two_soliton(grid.x, 0.5, k, x0)
        shifted = oracles.two_soliton(grid.x, 0.5, k, (x0[0] + 0.01, x0[1]))
        self.assertLess(np.max(np.abs(u - exact)) / peak, 1e-6)
        self.assertGreater(np.max(np.abs(u - shifted)) / peak, 1e-6)

    def test_radius_oracle_finds_the_soliton_pole(self):
        # far apart, each soliton keeps its own poles at height pi / k
        for k in ((1.0, 1.5), (1.0, 1.6)):
            sigma = oracles.nearest_tau_zero(0.0, k, (-20.0, 20.0), 40.0)
            self.assertAlmostEqual(sigma, np.pi / k[1], places=6)
        self.assertGreater(abs(oracles.nearest_tau_zero(0.0, (1.0, 1.6), (-20.0, 20.0), 40.0)
                               - np.pi / 1.5), 1e-3)

    def test_acl_oracle_rejects_a_misscaled_commutator(self):
        ac = self.kd.almost_conservation
        acl = workloads.AclSweep(self.kd, workloads.AclSweep.tiny, seed=5)
        self.assertTrue(acl.claim(0).passed)
        original = ac.commutator_term
        ac.commutator_term = lambda w, sigma, dealias=2.0 / 3.0: original(w, sigma, dealias) * 1.01
        try:
            res = acl.claim(0)
        finally:
            ac.commutator_term = original
        self.assertFalse(res.passed)
        self.assertTrue(any(k.startswith("oracle_defect") and not ok for k, ok in res.checks.items()))


if __name__ == "__main__":
    unittest.main()
