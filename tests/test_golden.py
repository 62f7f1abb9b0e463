"""Byte-for-byte contract of ``affiter run`` outputs.

Each directory under ``tests/golden`` holds a config and the ``trace.csv``
and ``report.json`` that ``affiter run`` wrote for it.  A change to the
engine, the weight families, the certificates or the output formatting that
moves any iterate, averaged point, relaxation, residual or slack by one ulp
shows up here.  The configs cover the README example and its memoryless
form, window(3), cesaro, nesterov and constant inertial rows, geometric
errors, and a window(2) Polyak subgradient run.

To regenerate after an intended change of output, run
``affiter run tests/golden/<name>/config.json --out-dir tests/golden/<name>``
for each directory and say why in the change's description.
"""

from pathlib import Path

import pytest

from affiter import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = ["cesaro", "constant_inertial", "geometric_error", "memoryless",
         "nesterov_inertial", "polyak_window2", "readme", "window3"]


@pytest.mark.parametrize("name", CASES)
def test_run_outputs_are_byte_identical(name, tmp_path, capsys):
    case = GOLDEN / name
    code = cli.main(["run", str(case / "config.json"), "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    for filename in ("trace.csv", "report.json"):
        assert (tmp_path / filename).read_bytes() == (case / filename).read_bytes(), filename
