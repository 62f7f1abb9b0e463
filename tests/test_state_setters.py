"""No module of the package calls a setter of process-wide state.

Python's warning filters, numpy's error modes set by ``np.seterr`` and
``np.seterrcall``, and the interpreter's switch interval are shared by every
thread, so a run that set them would change what a concurrent run sees.  A
run governs its floating-point events with ``np.errstate``, which numpy keeps
per thread.  The files are parsed, not imported, so the check also covers
code that no test reaches.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "affiter"

SETTERS = {
    "warnings.catch_warnings",
    "warnings.simplefilter",
    "warnings.filterwarnings",
    "np.seterr",
    "np.seterrcall",
    "numpy.seterr",
    "numpy.seterrcall",
    "sys.setswitchinterval",
}


def setter_calls(source):
    """The dotted names of the setters that ``source`` calls or imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in SETTERS:
            found.append(ast.unparse(node.func))
        elif isinstance(node, ast.ImportFrom):
            found += [f"{node.module}.{a.name}" for a in node.names
                      if f"{node.module}.{a.name}" in SETTERS]
    return found


def test_the_guard_finds_each_setter():
    source = "\n".join(f"{name}()" for name in sorted(SETTERS))
    assert sorted(setter_calls(source)) == sorted(SETTERS)
    assert setter_calls("from warnings import simplefilter") == ["warnings.simplefilter"]
    assert setter_calls("import numpy as np\nwith np.errstate(over='ignore'): pass") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_sets_process_wide_state(path):
    assert setter_calls(path.read_text()) == []
