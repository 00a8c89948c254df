"""The calling interface that ``perfbench`` relies on.

The tracer reads some arguments by name (by position or keyword), the
self-test passes ``dealias`` positionally, and the workloads pass keywords;
a change to any of these breaks the benchmark, not the package.
"""
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from kdvrad import almost_conservation, bilinear, bumps, scheduler, solver


@pytest.mark.parametrize("fn, names", [
    (bilinear.measure_block_ratio, ("trials", "seed")),
    (bilinear.xnorm_product_ratio, ("trials", "seed")),
    (bumps.dyadic_bump, ("s",)),
    (bilinear.product, ("u", "v")),
    (solver.evolve, ("T", "config")),
])
def test_traced_arguments_bind_by_position_or_keyword(fn, names):
    params = inspect.signature(fn).parameters
    for name in names:
        assert params[name].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_commutator_term_takes_dealias_third():
    params = list(inspect.signature(almost_conservation.commutator_term).parameters)
    assert params[2] == "dealias"


def test_workload_calls_bind():
    inspect.signature(almost_conservation.prepare_acl_trajectory).bind(
        None, 0.5, num_snapshots=4, steps_per_snapshot=2)
    inspect.signature(scheduler.empirical_schedule).bind(None, None, 1.0, trajectory=None)
    inspect.signature(bilinear.measure_block_ratio).bind(None, trials=32, seed=0)
    inspect.signature(bilinear.xnorm_product_ratio).bind(8, 8, 8, trials=32, seed=0)
    cfg = solver.SolverConfig(dt=1e-3, scheme="etdrk4", record_every=10)
    assert (cfg.dt, cfg.scheme, cfg.record_every) == (1e-3, "etdrk4", 10)


def test_benchmark_selftest_passes():
    # tiny traced and untraced runs of every workload, and each oracle against a perturbation
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
