"""Every top-level import of the package and of the tests is read, the
package and the tests import only at module level, the package never
reads the derived full coefficient array, every defaulted parameter of
a public function is set by some call, every public function is used and
named unlike any class member, every real FFT goes through grid's two
pocketfft helpers, every band weight through bumps, the grid's
half-spectrum is the one spectral layout and the solver's Trajectory the one
time-sampled stack, and every cache is small and hands out read-only values."""
import ast
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

import numpy as np

from kdvrad import bilinear, spacetime
from kdvrad.grid import GridSpec

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_every_top_level_import_is_read():
    files = [p for p in sorted((ROOT / "src" / "kdvrad").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    unused = {p.relative_to(ROOT).as_posix(): names
              for p in files if (names := unused_imports(p))}
    assert not unused, f"imported but never read: {unused}"


def test_package_imports_only_at_module_level():
    nested = set()
    paths = sorted((ROOT / "src" / "kdvrad").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested |= {f"{path.relative_to(ROOT).as_posix()}:{node.lineno}"
                           for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert not nested, f"imports inside functions: {sorted(nested)}"


def test_package_never_reads_the_full_coefficient_array():
    # SpectralField.coeffs completes the half-spectrum on every read; it is a
    # view for tests and the benchmark's oracles, not for the program
    reads = [f"{path.relative_to(ROOT).as_posix()}:{node.lineno}"
             for path in sorted((ROOT / "src" / "kdvrad").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "coeffs"]
    assert not reads, f".coeffs read inside the package: {reads}"


def defaulted_parameters(fn, is_method):
    """(name, positional index or None) of each parameter of ``fn`` with a default;
    a method's index counts from the parameter after self."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[1 if is_method else 0:]
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def public_functions(tree):
    """(name, def, is_method) of the public module functions and public class methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    yield item.name, item, not static


def sets_parameter(call, name, index):
    """True if ``call`` passes ``name`` by keyword or position, or may through * or **."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_defaulted_parameter_is_set_by_some_call():
    # an option that no call sets is a constant with a name: inline it
    calls = {}
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    calls.setdefault(name, []).append(node)
    unset = [f"{path.stem}.{name}({param})"
             for path in sorted((ROOT / "src" / "kdvrad").glob("*.py"))
             for name, fn, is_method in public_functions(ast.parse(path.read_text()))
             for param, index in defaulted_parameters(fn, is_method)
             if not any(sets_parameter(c, param, index) for c in calls.get(name, []))]
    assert not unset, f"defaulted parameters that no call sets: {unset}"


#: public functions that nothing in src/ or perfbench/ calls, each kept for what it serves
ORACLE_EXPORTS = {
    "smoothing_multiplier_bounds": "the theta = 3/4 symbol chain of a worst-case ACL probe",
    "doubling_condition_value": "closed-form oracle of the schedule's doubling check",
    "classical_invariants": "the solver tests' conservation oracle",
}


def test_no_dead_exports():
    # a public function read by no program code and serving no listed purpose is dead
    referenced = set()
    for folder in ("src", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name == "__init__.py":  # a re-export is not a use
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
    public = {node.name: path.stem for path in sorted((ROOT / "src" / "kdvrad").glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    dead = [f"{module}.{name}" for name, module in public.items()
            if name not in referenced and name not in ORACLE_EXPORTS]
    assert not dead, f"public functions nothing uses: {dead}"
    assert set(ORACLE_EXPORTS) <= public.keys() - referenced, "listed but used or gone"


def class_members(cls):
    """Names of the public methods, properties and fields of a class definition."""
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            name = item.name
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            name = item.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name


def test_no_public_function_is_named_like_a_class_member():
    # test_no_dead_exports matches bare names: a function named like a method, property or
    # field passes as used wherever that member is read
    functions, members = {}, set()
    for path in sorted((ROOT / "src" / "kdvrad").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                functions[node.name] = path.stem
            elif isinstance(node, ast.ClassDef):
                members.update(class_members(node))
    shared = [f"{module}.{name}" for name, module in functions.items() if name in members]
    assert not shared, f"public functions named like a class member: {shared}"


def test_real_ffts_go_through_the_grid_helpers_only():
    # only grid.py reaches numpy's private FFT kernels, as np.fft._pocketfft_umath.<kernel> (no
    # import), and only the two real ones: a complex kernel would get past the np.fft hooks of
    # the complex-FFT tests; and no np.fft.rfft / irfft is left for the FFT counters to miss
    reached, kernels, numpy_real = set(), set(), []
    for path in sorted((ROOT / "src" / "kdvrad").glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
        parent_attr = {id(n.value): n.attr for n in nodes if isinstance(n, ast.Attribute)}
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None) or ""
                if any("_pocketfft_umath" in f"{module}.{a.name}" for a in node.names):
                    reached.add(f"{path.name}:{node.lineno} (import)")
                if module == "numpy.fft":
                    numpy_real += [f"{path.name}:{node.lineno}" for a in node.names
                                   if a.name in ("rfft", "irfft")]
            elif isinstance(node, ast.Attribute):
                if node.attr == "_pocketfft_umath":
                    reached.add(path.name)
                    kernels.add(parent_attr.get(id(node)))  # None where it is not read from
                if node.attr in ("rfft", "irfft") and getattr(node.value, "attr", None) == "fft":
                    numpy_real.append(f"{path.name}:{node.lineno}")
    assert reached == {"grid.py"}, f"_pocketfft_umath reached from {sorted(reached)}"
    assert kernels == {"rfft_n_even", "irfft"}, f"pocketfft kernels read: {kernels}"
    assert not numpy_real, f"np.fft.rfft / irfft calls left: {numpy_real}"


def test_band_weights_go_through_bumps_only():
    # outside bumps.py every band weight comes from band_split / band_share; the cutoff itself
    # is read only by the time taper of the space-time transform
    callers = set()
    for path in sorted((ROOT / "src" / "kdvrad").glob("*.py")):
        if path.name == "bumps.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = {id(node): fn.name for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn)}  # an inner def overwrites its outer one
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in ("chi", "smooth_step"):
                    callers.add(f"{path.stem}.{scopes.get(id(node), '<module>')}")
    assert callers == {"spacetime.temporal_taper"}, f"chi / smooth_step called from {callers}"


def test_one_spectral_layout():
    # the grid's frequencies are the k = 0..n/2 half-spectrum, so no |xi| is taken of them; the
    # space-time rows are half-spectra, so spacetime.py makes no x transform; dyadic reads
    # spacetime through its public names
    found = []
    for path in sorted((ROOT / "src" / "kdvrad").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                name = node.func.attr
                if name == "abs" and getattr(node.func.value, "id", None) == "np" and any(
                        isinstance(n, ast.Attribute) and n.attr == "xi"
                        for a in node.args for n in ast.walk(a)):
                    found.append(f"{path.name}:{node.lineno} np.abs of .xi")
                if path.name == "spacetime.py" and name in ("to_half", "half_to_values"):
                    found.append(f"{path.name}:{node.lineno} {name}")
            elif path.name == "dyadic.py" and isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno} imports {a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert not found, f"second spectral layouts: {found}"


def test_one_time_sampled_stack():
    # solver.Trajectory is the one stack of half-spectra at sample times: no other class holds a
    # window t_a, t_b, or sample times next to a SpectralField; ScheduleComparison's times label
    # per-record numbers, not the rows of a field
    holders = []
    for path in sorted((ROOT / "src" / "kdvrad").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            members = set(class_members(node))
            holds_field = any(isinstance(item, ast.AnnAssign) and "SpectralField" in ast.unparse(
                item.annotation) for item in node.body)
            if members & {"t_a", "t_b"} or ("times" in members and holds_field):
                holders.append(f"{path.stem}.{node.name}")
    assert holders == ["solver.Trajectory"], f"classes holding sample times: {holders}"


#: one call of each cached function; the caches are found in the source, so a new one needs a row
CACHE_CALLS = {
    "bilinear._tube_targets": lambda: bilinear._tube_targets(
        bilinear.DyadicTriple(2, 8, 8, 1, 1, 128)),
    "spacetime._airy_window": lambda: spacetime._airy_window(GridSpec(64), -2.0, 2.0, 16),
}


def mutable_parts(value, where="value"):
    """Paths to the parts of ``value`` a caller could change in place: writeable arrays, lists,
    sets, dicts and other mappings than a MappingProxyType."""
    if isinstance(value, np.ndarray):
        return [] if not value.flags.writeable else [where]
    if isinstance(value, MappingProxyType):
        return [p for k, v in value.items() for p in mutable_parts(v, f"{where}[{k!r}]")]
    if isinstance(value, (list, set, dict, Mapping)):
        return [where]
    if isinstance(value, tuple):
        return [p for i, v in enumerate(value) for p in mutable_parts(v, f"{where}[{i}]")]
    return []


def test_every_cache_is_small_and_read_only():
    # a cache hands the same object to every caller, so one caller's write would change what
    # the others read; and it retains what it holds, so its bound is written out and small
    found, unbounded = set(), []
    for path in sorted((ROOT / "src" / "kdvrad").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            for d in getattr(fn, "decorator_list", []):
                call = d if isinstance(d, ast.Call) else ast.Call(d, [], [])
                if ast.unparse(call.func).split(".")[-1] not in ("lru_cache", "cache"):
                    continue
                found.add(f"{path.stem}.{fn.name}")
                size = call.args + [k.value for k in call.keywords if k.arg == "maxsize"]
                if not (size and isinstance(size[0], ast.Constant)
                        and type(size[0].value) is int and 1 <= size[0].value <= 64):
                    unbounded.append(f"{path.stem}.{fn.name}")
    assert not unbounded, f"caches without an explicit maxsize of 1-64: {unbounded}"
    assert found == CACHE_CALLS.keys(), f"cached functions: {sorted(found)}"
    mutable = {name: parts for name, call in CACHE_CALLS.items()
               if (parts := mutable_parts(call()))}
    assert not mutable, f"cached values a caller could change: {mutable}"
