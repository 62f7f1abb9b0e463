"""Each config key against each JSON value of another kind, in ``affiter run``
and ``affiter validate``.

The cases are each golden config, and the README's custom-errors example,
crossed with each key the config holds (an entry of ``errors.values`` counts
as the key ``errors.values[k]``) and each wrong value for that key's kind.
The kind is the JSON type of the golden's own value: an object, a string, an
integer (a JSON int), a number (a JSON float), a vector (a list of numbers)
or a list (of vectors).  null is wrong too, except for an object, an entry
of ``errors.values`` (no error at that step) and the keys in ``TAKES_NULL``.  In every case both commands exit 3, print nothing on
stdout, print the one line ``configuration error: <path> must be <kind>, got
<value>`` on stderr, and write no file.
"""

import contextlib
import io
import json
import os
import re
from pathlib import Path

import pytest

from affiter import cli, problems

GOLDEN = Path(__file__).resolve().parent / "golden"
README = GOLDEN.parent.parent / "README.md"
CASES = ["cesaro", "constant_inertial", "geometric_error", "memoryless",
         "nesterov_inertial", "peaceman_rachford", "polyak_window2", "readme", "window3"]

WRONG = {
    "an object": ["x", True, 1.0, [1.0]],
    "a string": [True, 1.0, ["x"], {"x": "y"}],
    "an integer": ["1", True, 2.5, [1], {"x": 1}],
    "a number": ["1.0", True, [1.0], {"x": 1.0}],
    "a vector of numbers": ["1.0", True, {"x": 1.0}, [True], ["1.0"], [[1.0]]],
    "a list": ["1.0", True, 1.0, {"x": 1.0}],
}
TAKES_NULL = {"relaxation.value", "solver.params.lambda"}


def golden(name):
    return json.loads((GOLDEN / name / "config.json").read_text())


def custom_errors_config():
    payload = golden("readme")
    payload["errors"] = {"model": "custom", "values": [[0.1], None], "layer": 1}
    return payload


def kind_of(value):
    if isinstance(value, dict):
        return "an object"
    if isinstance(value, str):
        return "a string"
    if isinstance(value, int):
        return "an integer"
    if isinstance(value, float):
        return "a number"
    if all(isinstance(v, (int, float)) for v in value):
        return "a vector of numbers"
    return "a list"


def keys(section, prefix=""):
    """(path, container, key) of each key under ``section``, depth first."""
    for key, value in section.items():
        path = prefix + key
        yield path, section, key
        if isinstance(value, dict):
            yield from keys(value, path + ".")
        elif kind_of(value) == "a list":
            for k, entry in enumerate(value):
                if entry is not None:
                    yield f"{path}[{k}]", value, k


def wrong_values(path, value):
    kind = kind_of(value)
    takes_null = kind == "an object" or path in TAKES_NULL or path.endswith("]")
    return kind, WRONG[kind] + ([] if takes_null else [None])


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_key_of_every_golden_config_rejects_every_other_kind(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    configs = {name: golden(name) for name in CASES}
    configs["readme+custom_errors"] = custom_errors_config()
    cases, failures = 0, []
    for name, payload in configs.items():
        for path, container, key in list(keys(payload)):
            original = container[key]
            kind, values = wrong_values(path, original)
            for wrong in values:
                container[key] = wrong
                Path("config.json").write_text(json.dumps(payload))
                expected = f"configuration error: {path} must be {kind}, got {wrong!r}\n"
                for command in ("run", "validate"):
                    cases += 1
                    outcome = run_main([command, "config.json"])
                    written = sorted(os.listdir()) != ["config.json"]
                    if outcome != (3, "", expected) or written:
                        failures.append(f"{name} {command} {path}={wrong!r}: {outcome!r}")
                        for extra in set(os.listdir()) - {"config.json"}:
                            os.remove(extra)
            container[key] = original
    assert cases > 1500
    assert not failures, "\n".join(failures[:20])


def edited(name, *path_and_value):
    """The golden config ``name`` with the value at the key path replaced."""
    payload = golden(name)
    *path, key, value = path_and_value
    section = payload
    for part in path:
        section = section.setdefault(part, {})
    section[key] = value
    return payload


NAN = float("nan")


@pytest.mark.parametrize("payload, message", [
    (edited("memoryless", "problem", "name", ["x"]), "problem.name must be a string, got ['x']"),
    (edited("memoryless", "solver", "name", ["x"]), "solver.name must be a string, got ['x']"),
    (edited("memoryless", "solver", "params", "gamma", "0.7"),
     "solver.params.gamma must be a number, got '0.7'"),
    (edited("memoryless", "stop_residual", "1e-3"), "stop_residual must be a number, got '1e-3'"),
    (edited("memoryless", "relaxation", "value", "0.5"),
     "relaxation.value must be a number, got '0.5'"),
    (edited("memoryless", "x0", None), "x0 must be a vector of numbers, got None"),
    (edited("memoryless", "x0", "1.5"), "x0 must be a vector of numbers, got '1.5'"),
    (edited("memoryless", "weights", {"family": 5}), "weights.family must be a string, got 5"),
    (edited("memoryless", "inertial_band", {"eta": 0.2, "theta_tune": 0.667}),
     "config needs inertial_band.sigma"),
    (edited("memoryless", "inertial_band", "sigma", "0.2"),
     "inertial_band.sigma must be a number, got '0.2'"),
    (edited("memoryless", "inertial_band", "sigma", -1.0), "sigma and theta_tune must be positive"),
    (edited("peaceman_rachford", "relaxation", "value", 0.5),
     "relaxation.value must be 1 for peaceman_rachford, got 0.5"),
    (edited("peaceman_rachford", "solver", "params", {"gamma": 1.0, "lambda": 0.3}),
     "unknown peaceman_rachford params: 'lambda'"),
    (edited("peaceman_rachford", "solver", "params", "gamma", NAN), "gamma must be positive"),
    (edited("memoryless", "relaxation", {"policy": "constant", "value": NAN}),
     "lambda_0 = nan below the band floor eps = 0.1"),
    (edited("polyak_window2", "relaxation", "value", None),
     "relaxation.value must be a number, got None"),
    (edited("polyak_window2", "solver", "params", "lambda", None),
     "solver.params.lambda must be a number, got None"),
], ids=["problem.name", "solver.name", "numeric-string-gamma", "numeric-string-stop_residual",
        "numeric-string-relaxation.value", "x0-null", "x0-numeric-string", "weights.family",
        "inertial_band-missing-sigma", "inertial_band-numeric-string", "inertial_band-bound",
        "peaceman_rachford-relaxation.value", "peaceman_rachford-lambda",
        "peaceman_rachford-nan-gamma", "nan-relaxation", "polyak-null-relaxation",
        "polyak-null-lambda"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_config_the_reader_let_through_exits_3_naming_it(tmp_path, monkeypatch, command,
                                                         payload, message):
    # each ended in a traceback, ran with exit 0, or exited 3 naming no key
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(payload))
    assert run_main([command, "config.json"]) == (3, "", f"configuration error: {message}\n")
    assert os.listdir() == ["config.json"]


def readme_params(heading):
    """``{name: {key: kind}}`` from the README list under ``heading``."""
    text = README.read_text()
    block = text[text.index(heading):].split("\n\n")[1]
    lists = {}
    for line in re.split(r"\n(?=- )", block):
        name, _, params = line.partition(":")
        lists[name.strip("-` ")] = dict(
            re.findall(r"`(\w+)` (number or null|number|string|object|vector)", params))
    return lists


def test_readme_lists_each_presets_params_and_their_kinds():
    words = {cli._number: "number", cli._number_or_null: "number or null",
             cli._string: "string", cli._object: "object"}
    assert readme_params("Solver params") == {
        name: {key: words[kind] for key, kind in kinds.items()}
        for name, kinds in cli.SOLVER_PARAMS.items()
    }


def test_readme_lists_each_problems_params():
    listed = readme_params("Problem params")
    assert {name: tuple(params) for name, params in listed.items()} == problems.PROBLEM_PARAMS
    words = {cli._vector: "vector", cli._float: "number"}
    assert {key: kind for params in listed.values() for key, kind in params.items()} == {
        key: words[kind] for key, kind in cli._PROBLEM_PARAM_KINDS.items()
    }
