"""The solver presets build every layer from the ``operators`` catalog.

Each layer formula, its map and its averaging constant alpha, lives in
``operators`` only, and ``solvers`` wires catalog layers into stacks: it calls
the catalog's builders, or re-declares a given operator with
``dataclasses.replace``.  So ``solvers.py`` constructs no ``AveragedOperator``
itself.  The file is parsed, not imported, so the check also covers code that
no test reaches.
"""

import ast
from pathlib import Path

SOLVERS = Path(__file__).resolve().parent.parent / "src" / "affiter" / "solvers.py"


def operator_constructions(source):
    """The lines of ``source`` that call ``AveragedOperator``, by any dotted name."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] == "AveragedOperator"]


def test_the_guard_finds_a_construction():
    assert operator_constructions("AveragedOperator(fn=f, alpha=1.0)") == [1]
    assert operator_constructions("x = 1\noperators.AveragedOperator(f, 0.5)") == [2]
    assert operator_constructions("def f(op: AveragedOperator) -> AveragedOperator: pass") == []


def test_solvers_constructs_no_averaged_operator():
    assert operator_constructions(SOLVERS.read_text()) == []
