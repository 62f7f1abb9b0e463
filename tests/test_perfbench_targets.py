"""Every span target that perfbench wraps still exists on the package.

``perfbench/run.py`` lists its targets as ``Target(span, af.<owner>, attr)``
calls, and ``Tracer.__enter__`` looks each one up with ``getattr``.  The
file is parsed, not imported or run, so a deleted or renamed target fails
here rather than at ``perfbench/run.py --trace 1``.
"""

import ast
import importlib
from pathlib import Path

import pytest

import affiter

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def traced_targets():
    targets = []
    for node in ast.walk(ast.parse(RUN_PY.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Target"):
            span, owner, attr = node.args[:3]
            assert isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
            assert owner.value.id == "af", ast.unparse(owner)
            targets.append((span.value if isinstance(span, ast.Constant) else ast.unparse(span),
                            owner.attr, attr.value))
    return targets


def test_the_target_list_is_found():
    assert len(traced_targets()) >= 20


def resolve(owner):
    # a submodule such as affiter.cli is an attribute only once imported,
    # which perfbench's workloads do before the target list is built
    try:
        return importlib.import_module(f"affiter.{owner}")
    except ModuleNotFoundError:
        return getattr(affiter, owner)


@pytest.mark.parametrize("span,owner,attr", traced_targets())
def test_target_resolves_on_affiter(span, owner, attr):
    assert callable(getattr(resolve(owner), attr))
