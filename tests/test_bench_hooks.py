"""The traced benchmark finds every entry point it patches.

`perfbench/tracer.py` wraps public functions by name from outside the
package, so a rename in `src/` breaks every traced benchmark run. This reads
the names it patches with `ast` and checks that each one exists.
"""

import ast
import importlib
from fractions import Fraction
from pathlib import Path

import numpy as np

from wignerlab import mc, suites
from wignerlab.laws import RademacherLaw

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_tree() -> ast.Module:
    return ast.parse(TRACER.read_text())


def _patched_names() -> set[tuple[str, str]]:
    """(module, name) of every span(...) and _patch(...) call in install()."""
    install = next(n for n in _tracer_tree().body if isinstance(n, ast.FunctionDef) and n.name == "install")
    modules = {"numpy.linalg": "numpy.linalg"}
    for node in ast.walk(install):
        if isinstance(node, ast.ImportFrom) and node.module == "wignerlab":
            modules.update((alias.name, f"wignerlab.{alias.name}") for alias in node.names)
    found = set()

    def visit(node, loop_values):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name) and isinstance(node.iter, ast.Tuple):
            values = [ast.literal_eval(elt) for elt in node.iter.elts]
            for child in node.body:
                visit(child, {**loop_values, node.target.id: values})
            return
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("span", "_patch"):
            owner, attr = node.args[:2] if node.func.id == "span" else node.args[1:3]
            module = modules.get(ast.unparse(owner))
            if isinstance(attr, ast.Constant):
                names = [attr.value]
            else:  # a loop over dir() or vars() patches only what exists
                names = loop_values.get(attr.id, []) if isinstance(attr, ast.Name) else []
            if module is not None:
                found.update((module, name) for name in names)
        for child in ast.iter_child_nodes(node):
            visit(child, loop_values)

    visit(install, {})
    return found


def test_tracer_patches_only_existing_names():
    patched = _patched_names()
    # the scan sees the mc layer and the eigen-solve, so it is not vacuous
    for name in ("sample_matrix", "sample_entries", "spectral_stats", "sample_stats", "truncation_event_rate"):
        assert ("wignerlab.mc", name) in patched
    assert ("numpy.linalg", "eigvalsh") in patched
    missing = sorted(pair for pair in patched if not hasattr(importlib.import_module(pair[0]), pair[1]))
    assert not missing, f"perfbench/tracer.py patches names that do not exist: {missing}"


def test_tracer_suites_exist():
    assign = next(
        n for n in _tracer_tree().body if isinstance(n, ast.Assign) and ast.unparse(n.targets[0]) == "SUITES"
    )
    numbers = {int(name.split("_")[1]) for name in dir(suites) if name.startswith("criterion_")}
    assert set(ast.literal_eval(assign.value)) <= numbers


def test_eigen_solve_is_looked_up_at_call_time(monkeypatch):
    # the tracer times eigen-solves by rebinding names: mc._eigvalsh, and
    # numpy.linalg.eigvalsh behind it for stacks it leaves to numpy
    calls = []
    real, real_numpy = mc._eigvalsh, np.linalg.eigvalsh

    def counting(matrix):
        calls.append(("mc", matrix.shape))
        return real(matrix)

    def counting_numpy(matrix):
        calls.append(("numpy", matrix.shape))
        return real_numpy(matrix)

    monkeypatch.setattr(mc, "_eigvalsh", counting)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_numpy)
    mc.sample_stats(mc.EnsembleConfig(n=3, law=RademacherLaw(Fraction(1, 2)), seed=1), 2)
    # both draws go to one stacked solve, which n = 3 leaves to numpy
    assert calls == [("mc", (2, 3, 3)), ("numpy", (2, 3, 3))]
