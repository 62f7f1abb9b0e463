"""One smoke-sized pass of each perfbench workload passes that workload's checks.

``perfbench/workloads.py`` checks the outputs of every pass it times: final
distances, certificate verdicts, the budget and the envelope against closed
forms, the cesaro CLI's files, and that the memoryless forward-backward
orbit is bit-exact with a bare numpy loop.  A benchmark run counts a failed
check in ``failed_frac``; running one pass here makes it a test failure
too.  The module is imported from its directory, as ``perfbench/run.py``
imports it, and the package from the source tree the suite runs on.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def import_workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


workloads = import_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_smoke_pass_passes_every_check(name, tmp_path):
    workload = workloads.WORKLOADS[name](7, True, tmp_path)
    _sample, out, _peak = workloads.timed_pass(workload)
    checks = workloads.Checks()
    workload.check(out, checks)
    assert checks.attempted > 0
    assert checks.failures == []
