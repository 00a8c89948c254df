"""Span recorder for the traced run.

``Tracer.install`` replaces every public function of the kdvrad layers with
a wrapper that records a span (name, start, end, parent, claim instance) and
counts errors, under every name the function is bound to in any kdvrad
module.  ``GridSpec.k_index`` is counted, not spanned: it is a property read
thousands of times per datum.  Spans stay in memory until ``save``; self time
is a span's duration minus the durations of its direct children.

Nothing here runs during the untraced measurement: the wrappers exist only
between ``install`` and ``uninstall``.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("solver", "grid", "gevrey", "almost_conservation", "scheduler",
          "spacetime", "bumps", "dyadic", "bilinear")


def _bound_argument(fn, name):
    """Extractor for one argument of ``fn`` (default applied), by position or keyword."""
    sig = inspect.signature(fn)
    pos = list(sig.parameters).index(name)
    default = sig.parameters[name].default

    def get(args, kwargs):
        if len(args) > pos:
            return args[pos]
        return kwargs.get(name, default)

    return get


class Tracer:
    def __init__(self):
        self.names = []          # span name table, indexed by name id
        self._name_ids = {}
        self.spans = []          # [name_id, start, end, parent, instance]
        self.stack = []
        self.errors = Counter()
        self.work = Counter()    # counts measured at layer boundaries
        self.instance = -1
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer in the imported kdvrad package."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "kdvrad" or name.startswith("kdvrad.")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"kdvrad.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        grid_spec = modules["kdvrad.grid"].GridSpec
        k_index = grid_spec.__dict__["k_index"]
        work = self.work

        def counted(spec):
            work["grid.k_index.calls"] += 1
            return k_index.fget(spec)

        self._patch(grid_spec, "k_index", property(counted, doc=k_index.__doc__))

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def _work_counter(self, name, fn):
        """Per-call work count for the layers whose cost is not one unit per call."""
        work = self.work
        if name == "bumps.dyadic_bump":
            get_s = _bound_argument(fn, "s")
            return lambda a, k: work.update({"bumps.dyadic_bump.points": int(np.size(get_s(a, k)))})
        if name == "bilinear.product":
            get_u, get_v = _bound_argument(fn, "u"), _bound_argument(fn, "v")
            return lambda a, k: work.update(
                {"bilinear.product.pairs": get_u(a, k).amp.size * get_v(a, k).amp.size})
        if name == "solver.evolve":
            get_t, get_cfg = _bound_argument(fn, "T"), _bound_argument(fn, "config")
            return lambda a, k: work.update(
                {"solver.steps": max(1, int(round(get_t(a, k) / get_cfg(a, k).dt)))})
        if name in ("bilinear.measure_block_ratio", "bilinear.xnorm_product_ratio"):
            get_trials = _bound_argument(fn, "trials")
            return lambda a, k: work.update({"bilinear.requested_trials": get_trials(a, k)})
        return None

    def _wrap(self, name, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        spans, stack, errors = self.spans, self.stack, self.errors
        count_work = self._work_counter(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_work is not None:
                count_work(args, kwargs)
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    # -- results -----------------------------------------------------------

    def arrays(self):
        spans = np.array(self.spans, dtype=float).reshape(-1, 5)
        name_id = spans[:, 0].astype(np.int64)
        duration = spans[:, 2] - spans[:, 1]
        parent = spans[:, 3].astype(np.int64)
        has_parent = parent >= 0
        child_time = np.zeros(len(spans))
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        return name_id, duration, duration - child_time, parent

    def layer_table(self, instances: int) -> dict:
        """Per claim instance: calls, self seconds and errors of every wrapped function."""
        name_id, _, self_time, _ = self.arrays()
        calls = np.bincount(name_id, minlength=len(self.names))
        self_s = np.bincount(name_id, weights=self_time, minlength=len(self.names))
        table = {}
        for i, name in enumerate(self.names):
            table[f"{name}.calls"] = calls[i] / instances
            table[f"{name}.s"] = self_s[i] / instances
            table[f"{name}.errors"] = self.errors[name] / instances
        for key, value in self.work.items():
            table[key] = value / instances
        return table

    def attributed_seconds(self) -> float:
        """Total self time of all spans, which equals the time covered by root spans."""
        return float(np.sum(self.arrays()[2]))

    def save(self, path):
        spans = np.array(self.spans, dtype=float).reshape(-1, 5)
        np.savez_compressed(path, names=np.array(self.names), name_id=spans[:, 0].astype(np.int32),
                            start=spans[:, 1], end=spans[:, 2],
                            parent=spans[:, 3].astype(np.int64), instance=spans[:, 4].astype(np.int32))
