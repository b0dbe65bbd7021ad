"""Architecture rules of ``src/pgm``, read off the syntax tree."""

import ast
from pathlib import Path

import pgm

SRC = Path(pgm.__file__).resolve().parent


def _calls_and_raises():
    """``(module, enclosing function, dotted callee)`` of every call, and
    ``(module, exception name)`` of every ``raise X(...)``, in ``src/pgm``."""
    calls, raises = [], []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem

        def visit(node, func):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, child.name)
                    continue
                if isinstance(child, ast.Call):
                    calls.append((module, func, ast.unparse(child.func)))
                if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call):
                    raises.append((module, ast.unparse(child.exc.func)))
                visit(child, func)

        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return calls, raises


def test_symmetric_eigensolvers_called_only_in_eigh():
    # riemannian_dist keeps scipy's generalized solver for B x = lambda A x
    calls, _ = _calls_and_raises()
    sites = {
        (module, func, callee)
        for module, func, callee in calls
        if callee.rsplit(".", 1)[-1] in ("eigh", "eigvalsh")
    }
    assert sites == {
        ("linalg", "_eigh", "np.linalg.eigh"),
        ("linalg", "_eigh", "np.linalg.eigvalsh"),
        ("linalg", "riemannian_dist", "scipy.linalg.eigh"),
    }


def test_not_positive_definite_raised_only_in_linalg():
    _, raises = _calls_and_raises()
    modules = {module for module, exc in raises if exc.endswith("NotPositiveDefinite")}
    assert modules == {"linalg"}
