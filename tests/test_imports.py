"""Every imported name is used: an ast scan standing in for a linter."""

import ast
import re
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# __init__.py is left out: its imports are the package's re-exports
MODULES = [
    path
    for path in sorted((ROOT / "src" / "wignerlab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    if path.name != "__init__.py"
]


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import except `from __future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _module_names(tree: ast.Module) -> dict[str, int]:
    """Module-level function, class and assigned constant names -> line."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return out


def _read(tree: ast.Module) -> set[str]:
    """Names loaded, attributes accessed and names imported (which exports them)."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_no_test_only_names():
    # every top-level name in the package is read by the package itself or
    # re-exported by __init__.py; oracles that only tests need live in tests/
    trees = {path.name: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "wignerlab").glob("*.py"))}
    read = set().union(*map(_read, trees.values()))
    unread = [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _module_names(tree).items()
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    ]
    assert not unread, f"names only the tests read: {unread}"


def test_no_assert_in_package():
    # python -O strips assert statements, so a runtime check in the package must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "wignerlab").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def _imported_modules(tree: ast.Module) -> set[str]:
    """Every module an import names, with each `from` import's names appended to its module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


@pytest.mark.parametrize("name", ["moments.py", "mc.py"])
def test_ensemble_layers_import_no_walk_layer(name):
    # the ensembles meet the walk combinatorics only through the committed shape table
    tree = ast.parse((ROOT / "src" / "wignerlab" / name).read_text())
    parts = {part for module in _imported_modules(tree) for part in module.split(".")}
    assert not parts & {"walks", "classes"}, f"{name} imports {sorted(parts & {'walks', 'classes'})}"


def test_runtime_dependencies_are_imported_by_the_package():
    # a package only the tests import belongs in the test extra, not in [project] dependencies
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in project["dependencies"]}
    imported = {
        module.split(".")[0]
        for path in sorted((ROOT / "src" / "wignerlab").glob("*.py"))
        for module in _imported_modules(ast.parse(path.read_text()))
    }
    assert declared and declared <= imported, f"declared but not imported: {sorted(declared - imported)}"
