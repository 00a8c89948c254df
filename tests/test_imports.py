"""Every top-level import of the package and of the tests is read, the
package and the tests import only at module level, and the package never
reads the derived full coefficient array."""
import ast
from pathlib import Path

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
