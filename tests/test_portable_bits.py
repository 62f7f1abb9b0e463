"""The digests and goldens hold under OpenBLAS's generic kernel too.

OpenBLAS picks a kernel for the CPU when it loads, and ``OPENBLAS_CORETYPE``
overrides that choice for one process.  Prescott is its generic x86-64
kernel, whose reductions differ from the AVX2 and AVX-512 ones in the last
bits, so a pinned float that still went through BLAS would move here.  The
variable is set in the child's environment only; under another BLAS it is
ignored, and the child repeats the parent's run.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_digests_and_goldens_under_the_generic_kernel():
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(TESTS / "test_digests.py"), str(TESTS / "test_golden.py")],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]


def test_no_digest_or_golden_reaches_the_dense_solve(monkeypatch, tmp_path, capsys):
    # LAPACK's solve stays host-dependent (operators.affine_monotone), so no
    # pinned config may reach it
    import numpy as np

    import digests
    from affiter import cli

    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or solve(*args))
    digests.compute()
    for config in sorted((TESTS / "golden").glob("*/config.json")):
        cli.main(["run", str(config), "--out-dir", str(tmp_path)])
        cli.main(["validate", str(config)])
    capsys.readouterr()
    assert solves == []
