"""Byte-for-byte contract of ``affiter run`` and ``affiter validate`` outputs.

Each directory under ``tests/golden`` holds a config, the ``trace.csv`` and
``report.json`` that ``affiter run`` wrote for it, and ``validate.txt``, the
standard output of ``affiter validate`` on it.  A change to the engine, the
weight families, the certificates or the output formatting that moves any
iterate, averaged point, relaxation, residual or slack by one ulp shows up
here.  The configs cover the README example and its memoryless form,
window(3), cesaro, nesterov and constant inertial rows, geometric errors,
a window(2) Polyak subgradient run, and a window(2) Peaceman-Rachford run
with errors on its outer reflector.

To regenerate after an intended change of output, run, for each directory,
``affiter run tests/golden/<name>/config.json --out-dir tests/golden/<name>``
and ``affiter validate tests/golden/<name>/config.json >
tests/golden/<name>/validate.txt``, and say why in the change's description.
The exit codes of ``affiter validate`` are pinned in ``VALIDATE_EXIT`` below.
"""

import json
import re
from pathlib import Path

import pytest

from affiter import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = ["cesaro", "constant_inertial", "geometric_error", "memoryless",
         "nesterov_inertial", "peaceman_rachford", "polyak_window2", "readme", "window3"]
# readme and memoryless ask for an inertial band their relaxation violates
VALIDATE_EXIT = {name: 0 for name in CASES} | {"memoryless": 3, "readme": 3}


@pytest.mark.parametrize("name", CASES)
def test_run_outputs_are_byte_identical(name, tmp_path, capsys):
    case = GOLDEN / name
    code = cli.main(["run", str(case / "config.json"), "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    for filename in ("trace.csv", "report.json"):
        assert (tmp_path / filename).read_bytes() == (case / filename).read_bytes(), filename


@pytest.mark.parametrize("name", CASES)
def test_validate_output_is_byte_identical(name, capsysbinary):
    case = GOLDEN / name
    code = cli.main(["validate", str(case / "config.json")])
    assert code == VALIDATE_EXIT[name]
    assert capsysbinary.readouterr().out == (case / "validate.txt").read_bytes()


def test_readme_schema_block_is_the_readme_golden_config():
    readme = (GOLDEN.parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```jsonc\n(.*?)```", readme, flags=re.DOTALL)
    schema = json.loads(re.sub(r"//[^\n]*", "", block))
    assert schema == json.loads((GOLDEN / "readme" / "config.json").read_text())
