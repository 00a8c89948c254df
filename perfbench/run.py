"""Run one kdvrad benchmark workload and print its metrics.

    python3 perfbench/run.py --workload acl_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/kdvrad`` of that checkout and nowhere else.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A manifest with the inputs, environment, stage
times and every claim instance is written to ``.perfbench/``.

Load model: a closed loop in one process with one compute thread; each claim
instance starts when the previous one has finished.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 11

#: metrics of the untraced run that every workload has, gated by BENCHMARK.json
END_TO_END = {"setup_s": "s", "claim_rel": "1", "peak_rss_mb": "MiB"}

#: every end-to-end number of the untraced run, with the workloads it applies to
REPORT = {
    "setup_s": ("s", "all"),
    "claim_s": ("s", "all"),
    "claim_rel": ("1", "all"),
    "steps_per_s": ("1/s", ("acl_sweep", "two_soliton")),
    "diag_evals_per_s": ("1/s", ("acl_sweep",)),
    "xbar_norms_per_s": ("1/s", ("dyadic_probes",)),
    "probe_trials_per_s": ("1/s", ("dyadic_probes",)),
    "oracle_max_rel_err": ("1", ("two_soliton",)),
    "radius_max_rel_err": ("1", ("two_soliton",)),
    "acl_identity_rel": ("1", ("acl_sweep",)),
    "bilinear_slope_err": ("1", ("dyadic_probes",)),
    "failed_frac": ("1", "all"),
    "peak_rss_mb": ("MiB", "all"),
}

KERNEL_STEPS = {512: 2000, 1024: 1500, 4096: 500}
KERNEL_REPEATS = 3
REFERENCE_ROUNDS = 60
REFERENCE_INTERVAL = 0.2


def _layer_metrics():
    """Per-layer metrics of the traced run: name -> (unit, better)."""
    spanned = {
        "solver": ("evolve", "classical_invariants"),
        "grid": ("check_boundary_smallness", "forward_transform", "dealiased_product",
                 "apply_multiplier"),
        "gevrey": ("smooth", "gevrey_norm", "estimate_radius"),
        "almost_conservation": ("commutator_term", "conservation_defect",
                                "measure_conservation"),
        "scheduler": ("empirical_schedule",),
        "spacetime": ("airy_spacetime", "spacetime_transform", "inverse_spacetime_transform"),
        "dyadic": ("xbar_norm",),
        "bilinear": ("product", "measure_block_ratio", "xnorm_product_ratio"),
    }
    out = {}
    for layer, fns in spanned.items():
        for fn in fns:
            out[f"{layer}.{fn}.calls"] = ("count", "lower")
            out[f"{layer}.{fn}.s"] = ("s", "lower")
            out[f"{layer}.{fn}.errors"] = ("count", "lower")
    out["solver.steps"] = ("count", "lower")
    for scheme in ("ifrk4", "etdrk4"):
        for n in KERNEL_STEPS:
            out[f"solver.kernel_steps_per_s.{scheme}.n{n}"] = ("1/s", "higher")
    out["grid.k_index.calls"] = ("count", "lower")
    out["bumps.dyadic_bump.calls"] = ("count", "lower")
    out["bumps.dyadic_bump.points"] = ("count", "lower")
    out["bumps.dyadic_bump.s"] = ("s", "lower")
    for fn in ("chi", "smooth_step"):
        out[f"bumps.{fn}.calls"] = ("count", "lower")
        out[f"bumps.{fn}.s"] = ("s", "lower")
    out["bilinear.product.pairs"] = ("count", "lower")
    out["bilinear.admissible_frac"] = ("1", "higher")
    out["trace.overhead_frac"] = ("1", "lower")
    out["trace.attributed_frac"] = ("1", "higher")
    return out


PER_LAYER = _layer_metrics()


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, for the benchmark's self-test")
    return p.parse_args(argv)


def import_kdvrad():
    """Import kdvrad afresh from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "kdvrad" or m.startswith("kdvrad.")]:
        del sys.modules[name]
    pkg = importlib.import_module("kdvrad")
    if Path(pkg.__file__).resolve().parent != (SRC / "kdvrad").resolve():
        raise ImportError(f"kdvrad was imported from {pkg.__file__}, not from {SRC}")
    from tracing import LAYERS
    return SimpleNamespace(**{name: importlib.import_module(f"kdvrad.{name}")
                              for name in LAYERS + ("errors",)})


def git_sha():
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n <= 10:
        return None
    ordered = sorted(values)
    return {"percentile": round(100.0 * (n - 10) / n, 2), "value": ordered[n - 11], "samples": n}


class ReferenceSampler:
    """Times a fixed numpy kernel every REFERENCE_INTERVAL s of wall time, from SIGALRM.

    The CPU speed of a shared virtual machine drifts between states about
    1.5x apart that last seconds, so raw claim times of one run can differ
    from the next by 15-25 %.  The kernel is a small pseudo-spectral loop
    (real FFTs at n = 1024, a squared nonlinearity, a phase multiply): the
    operation mix of a solver step, written without any kdvrad code, so no
    change to kdvrad can move it.  It runs in the main thread between
    bytecodes, also while a claim runs, so its timings sample the machine's
    speed during each claim.  Handler time inside a claim or a set-up is
    subtracted from it.
    """

    def __init__(self, np):
        self.np = np
        n = 1024
        k = np.arange(n // 2 + 1)
        self.x = np.exp(-np.linspace(-8.0, 8.0, n, endpoint=False) ** 2)
        self.phase = np.exp(1e-3j * k ** 3 / n)
        self.slope = -5e-4j * k * (k < n // 3)
        self.samples = []  # (start, end) of each kernel run
        self._previous = None

    def _handler(self, signum, frame):
        fft = self.np.fft
        n = self.x.size
        uh = fft.rfft(self.x)
        t0 = perf_counter()
        for _ in range(REFERENCE_ROUNDS):
            u = fft.irfft(uh, n)
            uh = self.phase * (uh + self.slope * fft.rfft(u * u))
        self.samples.append((t0, perf_counter()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL, REFERENCE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def inside(self, start, end) -> float:
        """Kernel time that ran inside [start, end]."""
        return sum(b - a for a, b in self.samples if start <= a and b <= end)

    def reference(self, start, end) -> float:
        """Mean kernel time within one interval of [start, end], else the nearest sample's."""
        near = [b - a for a, b in self.samples
                if start - REFERENCE_INTERVAL <= a and b <= end + REFERENCE_INTERVAL]
        if not near:
            middle = 0.5 * (start + end)
            a, b = min(self.samples, key=lambda ab: abs(ab[0] - middle))
            near = [b - a]
        return statistics.fmean(near)


def run_instance(kd, workload, i):
    """One claim instance; a KdvradError counts as a failed instance."""
    try:
        res = workload.claim(i)
    except kd.errors.KdvradError as exc:
        return {"index": i, "seconds": None, "failed": True, "error": repr(exc)}
    return {"index": i, "start": res.start, "seconds": res.seconds, "failed": not res.passed,
            "failed_checks": sorted(k for k, ok in res.checks.items() if not ok),
            "rates": res.rates, "accuracy": res.accuracy, "info": res.info}


def kernel_table(kd, tiny: bool) -> dict:
    """Solver steps/s for both schemes at three grid sizes, on a soliton."""
    table = {}
    for scheme in ("ifrk4", "etdrk4"):
        for n, steps in KERNEL_STEPS.items():
            steps = steps // 20 if tiny else steps
            grid = kd.grid.GridSpec(n, 40.0)
            f = kd.solver.soliton(grid, 1.0)
            cfg = kd.solver.SolverConfig(dt=1e-3, scheme=scheme, record_every=steps)
            rates = []
            for _ in range(1 if tiny else KERNEL_REPEATS):
                t0 = perf_counter()
                kd.solver.evolve(f, steps * cfg.dt, cfg)
                rates.append(steps / (perf_counter() - t0))
            table[f"solver.kernel_steps_per_s.{scheme}.n{n}"] = statistics.median(rates)
    return table


def summarize(records, setup_s):
    """The REPORT metrics of one untraced run (None where a metric does not apply)."""
    ok = [r for r in records if r["seconds"] is not None]
    out = {key: None for key in REPORT}
    out["setup_s"] = setup_s
    out["claim_s"] = statistics.median(r["seconds"] for r in ok) if ok else None
    out["claim_rel"] = statistics.median(r["seconds"] / r["reference_s"] for r in ok) if ok else None
    for key in ("steps_per_s", "diag_evals_per_s", "xbar_norms_per_s", "probe_trials_per_s"):
        vals = [r["rates"][key] for r in ok if key in r["rates"]]
        out[key] = statistics.median(vals) if vals else None
    for key in ("oracle_max_rel_err", "radius_max_rel_err", "acl_identity_rel"):
        vals = [r["accuracy"][key] for r in ok if key in r["accuracy"]]
        out[key] = max(vals) if vals else None
    vals = [r["accuracy"]["bilinear_slope_err"] for r in ok if "bilinear_slope_err" in r["accuracy"]]
    out["bilinear_slope_err"] = statistics.median(vals) if vals else None
    out["failed_frac"] = sum(r["failed"] for r in records) / len(records)
    out["peak_rss_mb"] = peak_rss_mb()
    return out


class Benchmark:
    def __init__(self, args):
        import workloads
        self.args = args
        self.cls = workloads.WORKLOADS[args.workload]
        self.sizes = self.cls.tiny if args.tiny else self.cls.full
        self.stages = {}

    def setup_once(self):
        """Import kdvrad afresh, build the input pool and warm every code path once."""
        start = perf_counter()
        kd = import_kdvrad()
        workload = self.cls(kd, self.sizes, self.args.seed)
        workload.warm_up()
        return kd, workload, (start, perf_counter())

    def measure(self, kd, workload, first_setup):
        """Untraced closed loop for --seconds (at least one claim instance).

        The set-up is repeated SETUP_REPEATS times, spread over the run so
        that its median does not hang on one state of the machine.
        """
        import numpy as np
        repeats = 2 if self.args.tiny else SETUP_REPEATS
        setups = [first_setup]
        records = []
        t0 = perf_counter()
        with ReferenceSampler(np) as sampler:
            while True:
                records.append(run_instance(kd, workload, len(records)))
                elapsed = perf_counter() - t0
                if len(setups) < repeats and elapsed >= len(setups) * self.args.seconds / repeats:
                    setups.append(self.setup_once()[2])
                if elapsed >= self.args.seconds:
                    break
            while len(setups) < repeats:
                setups.append(self.setup_once()[2])
            # wait for one sample after the last claim
            last_end = perf_counter()
            while not sampler.samples or sampler.samples[-1][0] < last_end:
                signal.pause()
        for rec in records:
            if rec["seconds"] is not None:
                end = rec["start"] + rec["seconds"]
                rec["reference_s"] = sampler.reference(rec["start"], end)
                rec["seconds"] -= sampler.inside(rec["start"], end)
        setup_times = [end - start - sampler.inside(start, end) for start, end in setups]
        self.stages["setup_s_each"] = setup_times
        self.stages["reference_samples"] = len(sampler.samples)
        self.stages["measure_s"] = perf_counter() - t0
        return records, statistics.median(setup_times)

    def measure_traced(self, kd, workload):
        """Kernel table, then traced and untraced instances of the same inputs, alternating."""
        import tracing
        t0 = perf_counter()
        layer = kernel_table(kd, self.args.tiny)
        self.stages["kernel_table_s"] = perf_counter() - t0
        tracer = tracing.Tracer()
        records = []
        traced_s, untraced_s = [], []
        t0 = perf_counter()
        for j in range(self.sizes.traced_instances):
            for traced in ((False, True) if j % 2 == 0 else (True, False)):
                if traced:
                    tracer.instance = j
                    tracer.install()
                    try:
                        rec = run_instance(kd, workload, j)
                    finally:
                        tracer.uninstall()
                else:
                    rec = run_instance(kd, workload, j)
                rec["traced"] = traced
                records.append(rec)
                if rec["seconds"] is not None:
                    (traced_s if traced else untraced_s).append(rec["seconds"])
        self.stages["traced_phase_s"] = perf_counter() - t0
        table = tracer.layer_table(self.sizes.traced_instances)
        layer.update(table)
        calls = table.get("bilinear.product.calls", 0.0)
        requested = table.get("bilinear.requested_trials", 0.0)
        layer["bilinear.admissible_frac"] = calls / requested if requested else 0.0
        if traced_s and untraced_s:
            layer["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
            layer["trace.attributed_frac"] = tracer.attributed_seconds() / sum(traced_s)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{self.args.workload}-seed{self.args.seed}.npz")
        return records, layer

    def manifest(self, records, results, setup_s):
        import numpy
        a = self.args
        return {
            "workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
            "tiny": a.tiny, "inputs": self.inputs, "setup_s": setup_s,
            "environment": {
                "numpy": numpy.__version__, "python": platform.python_version(),
                "machine": platform.machine(), "git_sha": git_sha(),
                "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            },
            "samples": {"attempted": len(records), "failed": sum(r["failed"] for r in records)},
            "stages": self.stages,
            "results": results,
            "instances": records,
        }

    def run(self):
        t_start = perf_counter()
        kd, workload, first_setup = self.setup_once()
        self.inputs = workload.inputs()
        t0 = perf_counter()
        workload.prepare_oracles()
        self.stages["oracle_prep_s"] = perf_counter() - t0
        setup_s = None
        if self.args.trace:
            records, layer = self.measure_traced(kd, workload)
            metrics = {name: {"value": float(layer.get(name, 0.0)), "unit": unit}
                       for name, (unit, _) in PER_LAYER.items()}
            results = {"per_layer": metrics, "all_layers": layer}
        else:
            records, setup_s = self.measure(kd, workload, first_setup)
            report = summarize(records, setup_s)
            ok = [r["seconds"] for r in records if r["seconds"] is not None]
            results = {"report": {k: {"value": v, "unit": REPORT[k][0]} for k, v in report.items()},
                       "claim_tail": tail_percentile(ok)}
            metrics = {name: {"value": report[name], "unit": unit} for name, unit in END_TO_END.items()}
            print_report(self.args.workload, report)
        self.stages["total_s"] = perf_counter() - t_start
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{self.args.workload}-seed{self.args.seed}-trace{self.args.trace}.json"
        path.write_text(json.dumps(self.manifest(records, results, setup_s), indent=1, default=str))
        failed = sum(r["failed"] for r in records)
        return {"correct": failed == 0, "attempted": len(records), "failed": failed,
                "metrics": metrics}


def print_report(workload, report):
    for name, (unit, applies) in REPORT.items():
        value = report[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        note = "" if applies == "all" or workload in applies else "  (not measured here)"
        print(f"{workload:>14} {name:<20} {shown:>14} {unit}{note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kdvrad" / "__init__.py").is_file():
        print(f"perfbench: no kdvrad sources at {SRC / 'kdvrad'}", file=sys.stderr)
        return 2
    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = Benchmark(args).run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
