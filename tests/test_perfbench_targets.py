"""Every span target and patched name that perfbench uses still exists on the package.

``perfbench/run.py`` and ``perfbench/workloads.py`` list their targets as
``Target(span, owner, attr)`` calls, and ``Tracer.__enter__`` looks each one
up with ``getattr``.  ``perfbench/workloads.py`` also replaces names on
``affiter.cli`` with ``mock.patch.object(cli, name, ...)``, which fails on a
name the module no longer has.  The files are parsed, not imported or run, so
a deleted or renamed target fails here rather than at ``perfbench/run.py``.
The traced mode's trace meter reads a solved trace; the last test reads one
the same way.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import affiter

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def owner_name(node):
    """``cli`` for the module name ``cli``, ``<name>`` for ``af.<name>``."""
    if isinstance(node, ast.Name):
        assert node.id == "cli", ast.unparse(node)
        return node.id
    assert isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    assert node.value.id == "af", ast.unparse(node)
    return node.attr


def calls(filename, is_target):
    tree = ast.parse((PERFBENCH / filename).read_text())
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call) and is_target(node.func)]


def traced_targets(filename):
    targets = []
    for node in calls(filename, lambda f: isinstance(f, ast.Name) and f.id == "Target"):
        span, owner, attr = node.args[:3]
        targets.append((span.value if isinstance(span, ast.Constant) else ast.unparse(span),
                        owner_name(owner), attr.value))
    return targets


def patched_names(filename):
    # mock.patch.object(cli, "<name>", replacement)
    return [("patch", owner_name(node.args[0]), node.args[1].value)
            for node in calls(filename, lambda f: ast.unparse(f) == "mock.patch.object")]


def test_the_target_list_is_found():
    assert len(traced_targets("run.py")) >= 20


def test_the_workload_targets_and_patches_are_found():
    workloads = traced_targets("workloads.py") + patched_names("workloads.py")
    assert {(owner, attr) for _span, owner, attr in workloads} == {
        ("cli", "_build_preset"), ("cli", "run_certificates"), ("cli", "catalog"),
        ("SolverPreset", "solve"),
    }


def resolve(owner):
    # a submodule such as affiter.cli is an attribute only once imported,
    # which perfbench's workloads do before the target list is built
    try:
        return importlib.import_module(f"affiter.{owner}")
    except ModuleNotFoundError:
        return getattr(affiter, owner)


@pytest.mark.parametrize("span,owner,attr", traced_targets("run.py"))
def test_target_resolves_on_affiter(span, owner, attr):
    assert callable(getattr(resolve(owner), attr))


@pytest.mark.parametrize("span,owner,attr",
                         traced_targets("workloads.py") + patched_names("workloads.py"))
def test_workload_target_resolves_on_affiter(span, owner, attr):
    assert callable(getattr(resolve(owner), attr))


def test_a_peaceman_rachford_trace_reads_as_the_trace_meter_reads_it():
    # perfbench/run.py's _trace_meter: the orbit rows, then each aux record's arrays
    prob = affiter.catalog("l1_quadratic", a=[1.0, -2.0])
    steps, dim = 40, 2
    _y, trace = affiter.peaceman_rachford(
        prob.ingredients["A"], prob.ingredients["B"], gamma=1.0, weights=affiter.window(2),
        x0=np.array([0.3, 0.1]), b_errors=lambda n: 0.5**n * np.ones(dim),
        max_iters=steps, stop_residual=0.0,
    ).solve()
    assert trace.n_steps == steps
    arrays = list(trace.points) + list(trace.xbars)
    for record in trace.aux or ():
        arrays.extend(v for v in record.values() if isinstance(v, np.ndarray))
    # x_0 .. x_N, xbar_0 .. xbar_{N-1}, and y_n, z_n of each step
    assert len(arrays) == (steps + 1) + steps + 2 * steps
    assert sum(a.nbytes for a in arrays) == 8 * dim * len(arrays)
    assert trace.peak_orbit_points == 2
