"""Write a BENCH record of one source checkout, using numpy only and editing nothing under
``perfbench/``.

    python3 tools/bench_record.py --out BENCH_<n>.json --label change
    python3 tools/bench_record.py --out BENCH_<n>.json --label parent --root <parent checkout>

The record goes under ``--label`` in ``--out``, next to the records already there, so the parent
and the change share one file.  ``--root`` names the checkout whose ``src/``, ``tests/`` and
``perfbench/`` are measured (default: the one holding this script).  A record holds:

- ``report``: ``perfbench/report.py --seed S --seconds T``, run unchanged, and the
  ``.perfbench/report.json`` it writes (every workload's metrics, correctness and claim tail);
- ``tier1``: the wall time and summary line of the tier-1 suite;
- ``layers``: per-call times of ``measure_block_ratio`` (the generic triple (2, N, N, 1, 1, 2 N^2))
  and ``xnorm_product_ratio`` at N = 8..64, of ``bilinear.product`` on two 32-row unit tube
  stacks at the triple (2, 16, 16, 1, 1, 512), of ``xbar_norm`` on one 256 x 96 field, of 500
  IFRK4 ``evolve`` steps at N = 512, 1024 and 4096 and 500 ETDRK4 steps at N = 1024, of
  ``classical_invariants`` on a 129-record stack, and of ``gevrey_norm``, ``estimate_radius``
  and ``commutator_term`` on one field, all at N = 1024.  Each repeat times the reference
  kernel, then the row; a row reports the median raw time, the median of the per-repeat ratios
  to the kernel, their quartiles and their minimum, which load arriving between kernel and row
  can only raise.  Each ``evolve`` row also holds ``soliton_error``, its last record against
  the translated soliton, which must stay within ``SOLITON_BOUND``;
- ``pins``: the pinned probe values of ``tests/test_bilinear.py`` recomputed in the same run;
- ``product_oracle``: the first 4 rows of those tube stacks multiplied by ``bilinear.product``
  and by the pair-by-pair ``product_oracle`` of ``tests/test_bilinear.py``, compared bitwise.

Exits non-zero if the report, the tier-1 suite, a pin, a soliton check or the product oracle
fails.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

REPEATS = 11
#: bound on max|u(T) - 3 sech^2((x - T)/2)| / 3 for the c = 1 soliton after 500 steps of 1e-3;
#: both schemes read 0.4e-12 to 1.8e-12 at N = 512..4096
SOLITON_BOUND = 1e-11


def reference_kernel(n=1024, rounds=60):
    """A fixed pseudo-spectral loop without kdvrad code (real FFTs at n = 1024, a squared
    nonlinearity, a phase multiply): its time samples the machine's speed.  Returns seconds."""
    k = np.arange(n // 2 + 1)
    phase, slope = np.exp(1e-3j * k ** 3 / n), -5e-4j * k * (k < n // 3)
    uh = np.fft.rfft(np.exp(-np.linspace(-8.0, 8.0, n, endpoint=False) ** 2))
    t0 = perf_counter()
    for _ in range(rounds):
        u = np.fft.irfft(uh, n)
        uh = phase * (uh + slope * np.fft.rfft(u * u))
    return perf_counter() - t0


def time_row(fn, number):
    """Median raw seconds per call, and the median and quartiles of the per-repeat ratios to
    the reference kernel, the two interleaved."""
    fn()
    raw, ratios = [], []
    for _ in range(REPEATS):
        ref = reference_kernel()
        t0 = perf_counter()
        for _ in range(number):
            fn()
        raw.append((perf_counter() - t0) / number)
        ratios.append(raw[-1] / ref)
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    return {"seconds": float(np.median(raw)), "ratio": float(median),
            "ratio_quartiles": [float(q1), float(q3)], "ratio_min": float(min(ratios)),
            "repeats": REPEATS, "number": number}


def tube_stacks(kd, rows):
    """``rows`` rows of unit tubes at the generic triple (2, 16, 16, 1, 1, 512), drawn as
    ``test_peak_memory_of_a_tube_stack_product`` draws its 32."""
    tg = kd.bilinear._tube_targets(kd.bilinear.DyadicTriple(2, 16, 16, 1, 1, 512))
    draws = np.random.default_rng(2).random((64, 2))
    lo1, lo2, dxi = kd.bilinear._targeted_tube_pairs(tg, draws)[:rows].T
    return kd.bilinear._tube(lo1, tg["lam1"], dxi), kd.bilinear._tube(lo2, tg["lam2"], dxi)


def layer_rows(kd):
    rows = {}
    for n in (8, 16, 32, 64):
        triple = kd.bilinear.DyadicTriple(2, n, n, 1, 1, 2 * n ** 2)
        rows[f"bilinear.measure_block_ratio.n{n}"] = time_row(
            lambda: kd.bilinear.measure_block_ratio(triple, trials=32, seed=1), 10)
        rows[f"bilinear.xnorm_product_ratio.n{n}"] = time_row(
            lambda: kd.bilinear.xnorm_product_ratio(n, n, n, trials=32, seed=1), 10)
    u, v = tube_stacks(kd, 32)
    rows["bilinear.product.n16_32_rows"] = time_row(lambda: kd.bilinear.product(u, v), 20)
    grid = kd.grid.GridSpec(256, 40.0)
    rng = np.random.default_rng(1)
    half = np.zeros(129, dtype=complex)
    half[1:25] = rng.standard_normal(24) * np.exp(2j * np.pi * rng.random(24))
    envelope = np.exp(-(grid.x / (40.0 / 3)) ** 2)
    field = kd.grid.forward_transform(grid.half_to_values(half) * envelope, grid)
    st = kd.spacetime.airy_spacetime(field, -2.0, 2.0, 96)
    rows["dyadic.xbar_norm.n256_nt96"] = time_row(lambda: kd.dyadic.xbar_norm(st, 0.5), 20)
    for scheme, n, name in (("ifrk4", 512, "n512"), ("ifrk4", 1024, "n1024"),
                            ("ifrk4", 4096, "n4096"), ("etdrk4", 1024, "etdrk4.n1024")):
        config = kd.solver.SolverConfig(dt=1e-3, scheme=scheme, record_every=500)
        soliton = kd.solver.soliton(kd.grid.GridSpec(n, 40.0), 1.0)
        row = time_row(lambda: kd.solver.evolve(soliton, 0.5, config), 1)
        # the exact solution: the c = 1 soliton translated by c t
        last = kd.solver.evolve(soliton, 0.5, config)
        exact = 3.0 / np.cosh((last.grid.x - last.times[-1]) / 2.0) ** 2
        error = float(np.max(np.abs(last.snapshots[-1].values() - exact)) / 3.0)
        rows[f"solver.evolve.{name}_500_steps"] = {**row, "steps_per_s": 500 / row["seconds"],
                                                   "soliton_error": error}
    soliton = kd.solver.soliton(kd.grid.GridSpec(1024, 40.0), 1.0)
    stack = kd.solver.evolve(soliton, 0.128, kd.solver.SolverConfig(dt=1e-3, record_every=1))
    rows["solver.classical_invariants.n1024_129_records"] = time_row(
        lambda: kd.solver.classical_invariants(stack.field), 5)
    params = kd.gevrey.GevreyParams(0.5, 1.0)
    rows["gevrey.gevrey_norm.n1024"] = time_row(lambda: kd.gevrey.gevrey_norm(soliton, params), 200)
    rows["gevrey.estimate_radius.n1024"] = time_row(lambda: kd.gevrey.estimate_radius(soliton), 100)
    w = kd.gevrey.smooth(soliton, 0.4)
    rows["almost_conservation.commutator_term.n1024"] = time_row(
        lambda: kd.almost_conservation.commutator_term(w, 0.4), 50)
    return rows


def check_pins(kd, tests):
    sys.path.insert(0, str(tests))
    import test_bilinear as pinned
    checked, mismatches = 0, []
    for (seed, n), want in pinned.BLOCK_PINS.items():
        rec = kd.bilinear.measure_block_ratio(kd.bilinear.DyadicTriple(2, n, n, 1, 1, 2 * n ** 2),
                                              seed=seed)
        got = (rec.measured_lhs.hex(), rec.ratio.hex(), rec.attempts)
        checked += 1
        if got != tuple(want):
            mismatches.append({"probe": "block", "seed": seed, "n": n, "got": got})
    for seed, values in pinned.XNORM_PINS.items():
        for n, want in zip((8, 16, 32, 64), values):
            got = kd.bilinear.xnorm_product_ratio(n, n, n, seed=seed).hex()
            checked += 1
            if got != want:
                mismatches.append({"probe": "xnorm", "seed": seed, "n": n, "got": got})
    return {"checked": checked, "mismatches": mismatches}


def check_product(kd, tests):
    """``bilinear.product`` of 4-row tube stacks against the pair-by-pair oracle, bitwise."""
    sys.path.insert(0, str(tests))
    import test_bilinear as oracle
    u, v = tube_stacks(kd, 4)
    got = kd.bilinear.product(u, v)
    xi_index, tau, amp, dxi, ends = oracle.product_oracle(u, v)
    mismatches = [name for name, have, want in (
        ("xi_index", got.xi_index, xi_index), ("tau", got.tau, tau), ("amp", got.amp, amp),
        ("xi", got.xi, xi_index * dxi), ("dxi", got.dxi, u.dxi))
        if have.dtype != want.dtype or have.tobytes() != want.tobytes()]
    if got.ends.tolist() != ends:
        mismatches.append("ends")
    return {"rows": len(ends), "cells": len(amp), "mismatches": mismatches}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args(argv)
    root = args.root.resolve()
    env = {**os.environ, "PYTHONPATH": str(root / "src")}

    proc = subprocess.run([sys.executable, "perfbench/report.py", "--seed", str(args.seed),
                           "--seconds", str(args.seconds)], cwd=root, capture_output=True,
                          text=True)
    report = {"returncode": proc.returncode, "seed": args.seed, "seconds": args.seconds,
              "workloads": json.loads((root / ".perfbench" / "report.json").read_text())}

    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "--continue-on-collection-errors"], cwd=root, env=env,
                          capture_output=True, text=True)
    summary = re.findall(r"^=*\s*(\d+ passed.*?)\s*=*$", proc.stdout, re.M)
    tier1 = {"returncode": proc.returncode, "wall_s": perf_counter() - t0,
             "summary": summary[-1] if summary else proc.stdout[-500:]}

    sys.path.insert(0, str(root / "src"))
    kd = SimpleNamespace(**{name: importlib.import_module(f"kdvrad.{name}")
                            for name in ("almost_conservation", "bilinear", "dyadic", "gevrey",
                                         "grid", "solver", "spacetime")})
    if Path(kd.grid.__file__).resolve().parent != root / "src" / "kdvrad":
        raise ImportError(f"kdvrad was imported from {kd.grid.__file__}, not from {root / 'src'}")
    layers = layer_rows(kd)
    pins = check_pins(kd, root / "tests")
    product_check = check_product(kd, root / "tests")

    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                         text=True).stdout.strip()
    record = {"git_sha": sha, "dirty": bool(subprocess.run(
                  ["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
                  capture_output=True, text=True).stdout.strip()),
              "python": platform.python_version(), "numpy": np.__version__,
              "machine": platform.machine(), "cpus": os.cpu_count(),
              "reference_kernel_s": float(np.median([reference_kernel() for _ in range(REPEATS)])),
              "report": report, "tier1": tier1, "layers": layers, "pins": pins,
              "product_oracle": product_check}
    records = json.loads(args.out.read_text()) if args.out.exists() else {}
    records[args.label] = record
    args.out.write_text(json.dumps(records, indent=1) + "\n")
    errors = [row["soliton_error"] for row in layers.values() if "soliton_error" in row]
    ok = (report["returncode"] == 0 and tier1["returncode"] == 0 and not pins["mismatches"]
          and max(errors) <= SOLITON_BOUND and not product_check["mismatches"])
    print(f"{args.label}: report rc {report['returncode']}, tier-1 {tier1['summary']} in "
          f"{tier1['wall_s']:.1f} s, pins {pins['checked'] - len(pins['mismatches'])}/"
          f"{pins['checked']}, soliton error {max(errors):.2g} (bound {SOLITON_BOUND:g}), "
          f"product oracle {product_check['mismatches'] or 'bitwise'}",
          file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
