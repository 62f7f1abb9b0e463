"""Every inner product in ``src/`` is summed by the ``space`` kernel.

A BLAS call (``.dot``, a matmul, ``np.vdot``, ``np.inner``, ``np.einsum``,
``np.linalg.norm``) sums in an order that the host's CPU picks, so a pinned
float it feeds would hold on one host only.  ``space.dot``, ``norm``,
``row_distances`` and ``matvec`` sum in numpy's ``add.reduce`` order on every
host.  The one call left names its reason in ``ALLOWED``.  The files are
parsed, not imported, so the check also covers code that no test reaches.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "affiter"

BLAS_CALLS = {
    "np.matmul", "numpy.matmul", "np.vdot", "numpy.vdot", "np.inner", "numpy.inner",
    "np.einsum", "numpy.einsum", "np.linalg.norm", "numpy.linalg.norm",
}

#: (file, enclosing function, call): all_finite's sum of squares only picks
#: a branch, and either branch returns the same verdict
ALLOWED = {("space.py", "all_finite", "np.vdot")}


def blas_calls(source):
    """``(enclosing function, call)`` for each BLAS reduction in ``source``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else function
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult):
                found.append((inner, "@"))
            elif isinstance(child, ast.Call):
                name = ast.unparse(child.func)
                if name in BLAS_CALLS:
                    found.append((inner, name))
                elif isinstance(child.func, ast.Attribute) and child.func.attr == "dot":
                    found.append((inner, ".dot("))
            elif isinstance(child, ast.ImportFrom) and child.module in ("numpy", "numpy.linalg"):
                found.extend((inner, f"{child.module}.{a.name}") for a in child.names
                             if f"{child.module}.{a.name}" in BLAS_CALLS | {"numpy.dot"})
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_the_guard_finds_each_call():
    source = "\n".join(f"{name}(a, b)" for name in sorted(BLAS_CALLS)) + """
def f(a, b):
    c = a @ b
    c @= b
    return a.dot(b) + np.dot(a, b)
from numpy import vdot
from numpy.linalg import norm
"""
    expected = [(None, name) for name in sorted(BLAS_CALLS)] + [
        ("f", "@"), ("f", "@"), ("f", ".dot("), ("f", ".dot("),
        (None, "numpy.vdot"), (None, "numpy.linalg.norm"),
    ]
    assert sorted(blas_calls(source), key=str) == sorted(expected, key=str)
    assert blas_calls("np.add.reduce(np.multiply(a, b))\nmath.sqrt(x)") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_sums_through_blas(path):
    calls = [(path.name, function, call) for function, call in blas_calls(path.read_text())]
    assert [call for call in calls if call not in ALLOWED] == []


def test_each_allowed_call_is_still_there():
    calls = {(path.name, function, call)
             for path in SRC.glob("*.py") for function, call in blas_calls(path.read_text())}
    assert ALLOWED <= calls
