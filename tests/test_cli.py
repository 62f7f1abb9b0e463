import argparse
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from affiter import (
    EtaSchedule,
    GeometricError,
    IterationConfig,
    WeightSchedule,
    chi_table,
    cli,
    compose,
    constant_relaxation,
    gradient_step,
    prox_l1,
    run,
    run_certificates,
    window,
)
from affiter.errors import NumericalDivergence

GOLDEN = Path(__file__).resolve().parent / "golden"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def fb_config(tmp_path, **overrides):
    payload = {
        "problem": {"name": "l1_quadratic", "params": {"a": [2.0]}},
        "solver": {"name": "forward_backward",
                   "params": {"gamma": 1.0, "epsilon": 0.1, "variant": "memoryless"}},
        "relaxation": {"policy": "constant", "value": 1.0},
        "horizon": 200,
        "stop_residual": 1e-10,
        "x0": [0.0],
        "seed": 0,
        "outputs": {"trace": "trace.csv", "report": "report.json"},
    }
    payload.update(overrides)
    return write_config(tmp_path, payload)


class TestRunCommand:
    def test_forward_backward_run_reaches_reference(self, tmp_path):
        cfg = fb_config(tmp_path)
        code = cli.main(["run", cfg, "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["final_dist_to_ref"] <= 1e-6
        assert report["certificates"]["i"]["passed"]
        assert report["certificates"]["ii"]["passed"]
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header == "n,residual,theta_n,lambda_n,phi_n,dist_to_ref,cert_i_slack,cert_ii_slack"

    def test_overlarge_relaxation_exits_3_naming_cap(self, tmp_path, capsys):
        cfg = fb_config(tmp_path, relaxation={"policy": "constant", "value": 5.0})
        code = cli.main(["run", cfg, "--out-dir", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "cap" in err or "1/phi" in err

    def test_rotation_non_convergence_is_data_not_error(self, tmp_path):
        # the plain baseline on the half-turn rotation keeps residual 2 ||x||
        cfg = write_config(tmp_path, {
            "problem": {"name": "rotation_fixed_point", "params": {"angle": math.pi}},
            "solver": {"name": "krasnoselskii_mann", "params": {"variant": "memoryless"}},
            "relaxation": {"policy": "constant", "value": 1.0},
            "horizon": 100,
            "stop_residual": 1e-10,
            "x0": [1.0, 0.0],
            "outputs": {"trace": "trace.csv", "report": "report.json"},
        })
        code = cli.main(["run", cfg, "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["stop_reason"] == "max_iters"
        assert report["final_residual"] == pytest.approx(2.0)

    def test_identical_config_gives_byte_identical_trace(self, tmp_path):
        cfg = fb_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", cfg, "--out-dir", str(out1)]) == 0
        assert cli.main(["run", cfg, "--out-dir", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_mean_value_fixed_point_config(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": {"name": "rotation_fixed_point", "params": {"angle": math.pi}},
            "solver": {"name": "krasnoselskii_mann", "params": {"variant": "mean"}},
            "weights": {"family": "window", "window": 2},
            "relaxation": {"policy": "constant", "value": 1.0},
            "horizon": 60,
            "stop_residual": 0.0,
            "x0": [1.0, 0.0],
        })
        code = cli.main(["run", cfg, "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert np.linalg.norm(report["solution"]) <= 1e-7

    def test_geometric_error_model_wires_in(self, tmp_path):
        cfg = fb_config(tmp_path, errors={
            "model": "geometric", "rate": 0.5, "direction": [0.01], "layer": 1,
        }, stop_residual=0.0, horizon=80)
        code = cli.main(["run", cfg, "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["final_dist_to_ref"] <= 1e-6

    def test_readme_custom_errors_example_runs(self, tmp_path):
        # the README's custom model names one layer of the two-layer stack
        payload = json.loads((GOLDEN / "readme" / "config.json").read_text())
        payload["errors"] = {"model": "custom", "values": [[0.1], None], "layer": 1}
        code = cli.main(["run", write_config(tmp_path, payload), "--out-dir", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "trace.csv").read_text().splitlines()
        assert rows[1].split(",")[2] == "0.10000000000000001"  # theta_0 = lambda_0 ||e_0||
        assert rows[2].split(",")[2] == "0"

    def test_error_layer_below_the_stack_exits_3_naming_it(self, tmp_path, capsys):
        cfg = fb_config(tmp_path, errors={
            "model": "geometric", "rate": 0.5, "direction": [0.01], "layer": 3,
        })
        assert cli.main(["run", cfg, "--out-dir", str(tmp_path)]) == 3
        assert "perturbs layer 3, but the stack has 2 layers" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("solver,extra,message", [
        ({"name": "forward_backward", "params": {
            "variant": "inertial", "gamma": 0.8, "eta": {"kind": "constant", "eta": 0.3}}},
         {}, "errors under inertial weights need unit relaxation and a bounded-domain "
         "backward operator; rejected"),
        # the memoryless variant meets the same rule when the weights section is inertial
        ({"name": "forward_backward", "params": {"variant": "memoryless", "gamma": 0.8}},
         {"weights": {"family": "inertial", "eta": {"kind": "constant", "eta": 0.5}}},
         "errors under inertial weights need unit relaxation and a bounded-domain "
         "backward operator; rejected"),
        ({"name": "krasnoselskii_mann", "params": {"variant": "inertial", "lambda": 0.3}},
         {}, "the inertial variant is error-free; rejected"),
    ], ids=["forward_backward", "forward_backward-memoryless", "krasnoselskii_mann"])
    def test_errors_meet_the_builders_inertial_rules(self, tmp_path, capsys, command,
                                                     solver, extra, message):
        # the builder sees the config's error model, not a model set after it
        fb = solver["name"] == "forward_backward"
        cfg = write_config(tmp_path, extra | {
            "problem": {"name": "l1_quadratic", "params": {"a": [2.0, -0.3, 0.7]}} if fb
            else {"name": "rotation_fixed_point", "params": {"angle": 1.0}},
            "solver": solver,
            "relaxation": {"policy": "constant", "value": 1.3 if fb else 0.3},
            "errors": {"model": "geometric", "rate": 0.5, "direction": [0.01, -0.02, 0.005]}
            if fb else {"model": "custom", "values": [[0.01, 0.0], [0.005, 0.0]]},
            "horizon": 30,
            "stop_residual": 0.0,
            "x0": [-1.0, 0.5, 3.0] if fb else [1.0, -0.5],
        })
        args = [command, cfg] + (["--out-dir", str(tmp_path)] if command == "run" else [])
        assert cli.main(args) == 3
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("layer", [0, -3])
    def test_custom_error_layer_below_one_exits_3(self, tmp_path, capsys, layer):
        cfg = fb_config(tmp_path, errors={"model": "custom", "values": [[0.1]], "layer": layer})
        assert cli.main(["run", cfg, "--out-dir", str(tmp_path)]) == 3
        assert "layer index is 1-based" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("horizon", [0, -2])
    def test_horizon_below_one_exits_3(self, tmp_path, monkeypatch, capsys, command, horizon):
        monkeypatch.chdir(tmp_path)
        cfg = fb_config(tmp_path, horizon=horizon)
        assert cli.main([command, cfg]) == 3
        captured = capsys.readouterr()
        assert f"horizon must be >= 1, got {horizon}" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("overrides, named", [
        ({"errors": {"model": "custom"}}, "config needs errors.values"),
        ({"errors": {"model": "geometric", "direction": [0.1]}}, "config needs errors.rate"),
        ({"problem": {"params": {"a": [2.0]}}}, "config needs problem.name"),
        ({"solver": {"params": {"gamma": 1.0}}}, "config needs solver.name"),
        ({"horizon": "abc"}, "horizon must be an integer, got 'abc'"),
        ({"weights": {"family": "window", "window": "abc"}},
         "weights.window must be an integer, got 'abc'"),
        (None, "must hold a JSON object"),
    ], ids=["errors.values", "errors.rate", "problem.name", "solver.name",
            "horizon", "window", "top-level-list"])
    def test_malformed_config_exits_3_naming_the_key(
        self, tmp_path, monkeypatch, capsys, command, overrides, named
    ):
        monkeypatch.chdir(tmp_path)
        if overrides is None:
            cfg = fb_config(tmp_path)
            cfg = write_config(tmp_path, [json.loads(Path(cfg).read_text())])
        else:
            cfg = fb_config(tmp_path, **overrides)
        assert cli.main([command, cfg]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: ")
        assert named in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("overrides, named", [
        ({"problem": "l1"}, "problem must be an object, got 'l1'"),
        ({"problem": {"name": "l1_quadratic", "params": [1]}},
         "problem.params must be an object, got [1]"),
        ({"solver": {"name": "forward_backward", "params": [1]}},
         "solver.params must be an object, got [1]"),
        ({"weights": "window"}, "weights must be an object, got 'window'"),
        ({"relaxation": "x"}, "relaxation must be an object, got 'x'"),
        ({"errors": "x"}, "errors must be an object, got 'x'"),
        ({"x0": "abc"}, "x0 must be a vector of numbers, got 'abc'"),
        ({"errors": {"model": "geometric", "rate": 0.5, "direction": "abc"}},
         "errors.direction must be a vector of numbers, got 'abc'"),
        ({"solver": {"name": "forward_backward", "params": {"gamma": "abc"}}},
         "solver.params.gamma must be a number, got 'abc'"),
        ({"relaxation": {"policy": "constant", "value": "abc"}},
         "relaxation.value must be a number, got 'abc'"),
        ({"problem": {"name": "l1_quadratic", "params": {"a": "abc"}}},
         "problem.params.a must be a vector of numbers, got 'abc'"),
        ({"problem": {"name": "rotation_fixed_point", "params": {"angle": "abc"}}},
         "problem.params.angle must be a number, got 'abc'"),
    ], ids=["problem", "problem.params", "solver.params", "weights", "relaxation",
            "errors", "x0", "errors.direction", "solver.params.gamma", "relaxation.value",
            "problem.params.a", "problem.params.angle"])
    def test_wrong_json_type_exits_3_naming_the_key(
        self, tmp_path, monkeypatch, capsys, command, overrides, named
    ):
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, fb_config(tmp_path, **overrides)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {named}\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_outputs_of_wrong_json_type_exits_3_naming_it(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", fb_config(tmp_path, outputs="x")]) == 3
        err = capsys.readouterr().err
        assert err == "configuration error: outputs must be an object, got 'x'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_unknown_problem_param_exits_3_naming_it(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        cfg = fb_config(tmp_path, problem={"name": "l1_quadratic", "params": {"b": 1}})
        assert cli.main([command, cfg]) == 3
        assert capsys.readouterr().err == "configuration error: unknown l1_quadratic params: 'b'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("value", [math.nan, -1.0])
    def test_negative_or_nan_stop_residual_exits_3(self, tmp_path, monkeypatch, capsys,
                                                     command, value):
        # json reads NaN; either value used to turn the residual stop off
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, fb_config(tmp_path, stop_residual=value)]) == 3
        captured = capsys.readouterr()
        assert captured.err == ("configuration error: stop_residual must be >= 0 "
                                f"(0 disables the stop), got {value}\n")
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_unknown_solver_param_exits_3_naming_it(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = fb_config(tmp_path, solver={
            "name": "forward_backward", "params": {"gama": 1.0, "variant": "memoryless"},
        })
        assert cli.main(["run", cfg]) == 3
        assert "unknown forward_backward params: 'gama'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_divergence_maps_to_exit_2(self, tmp_path, monkeypatch, capsys):
        cfg = fb_config(tmp_path)

        def boom(_cfg):
            raise NumericalDivergence("iterate became non-finite at iteration 7", iteration=7)

        monkeypatch.setattr(cli, "_build_preset", boom)
        assert cli.main(["run", cfg]) == 2
        assert "diverged" in capsys.readouterr().err

    def test_unknown_problem_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": {"name": "nope"},
            "solver": {"name": "forward_backward"},
        })
        assert cli.main(["run", cfg]) == 3

    def test_missing_ingredient_exits_3(self, tmp_path, capsys):
        # the feasibility problem carries no single fixed-point map
        cfg = write_config(tmp_path, {
            "problem": {"name": "feasibility"},
            "solver": {"name": "krasnoselskii_mann", "params": {"variant": "mean"}},
            "weights": {"family": "window", "window": 2},
            "x0": [0.0, 0.0],
        })
        assert cli.main(["run", cfg]) == 3
        assert "ingredient" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_relaxation_policy_other_than_constant_exits_3_naming_it(
        self, tmp_path, monkeypatch, capsys, command
    ):
        monkeypatch.chdir(tmp_path)
        cfg = fb_config(tmp_path, relaxation={"policy": "overrelaxed", "value": 1.0})
        assert cli.main([command, cfg]) == 3
        assert "unsupported relaxation policy 'overrelaxed'" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_seed_flag_is_rejected(self, tmp_path, capsys):
        # nothing random reads a seed; report.json echoes the config's own
        cfg = fb_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", cfg, "--out-dir", str(tmp_path), "--seed", "3"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


class TestValidateCommand:
    def test_valid_config_passes(self, tmp_path, capsys):
        cfg = fb_config(tmp_path)
        assert cli.main(["validate", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["weights"]["ok"]
        assert out["relaxation"]["max"] <= 1.5

    def test_inertial_band_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": {"name": "l1_quadratic", "params": {"a": [2.0]}},
            "solver": {"name": "forward_backward",
                       "params": {"gamma": 1.0, "variant": "inertial",
                                  "eta": {"kind": "constant", "eta": 0.2}}},
            "weights": {"family": "inertial", "eta": {"kind": "constant", "eta": 0.2}},
            "relaxation": {"policy": "constant", "value": 0.5},
            "inertial_band": {"eta": 0.2, "sigma": 0.2, "theta_tune": 2.0},
            "horizon": 50,
            "x0": [0.0],
        })
        assert cli.main(["validate", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["inertial_band"]["ok"]

    def test_inertial_band_reads_the_runs_eta(self, tmp_path, capsys):
        # eta comes from the solver's params; the weights section names none
        cfg = write_config(tmp_path, {
            "problem": {"name": "l1_quadratic", "params": {"a": [2.0]}},
            "solver": {"name": "forward_backward",
                       "params": {"gamma": 1.0, "variant": "inertial",
                                  "eta": {"kind": "constant", "eta": 0.9}}},
            "relaxation": {"policy": "constant", "value": 1.0},
            "inertial_band": {"eta": 0.3, "sigma": 0.2, "theta_tune": 2.0},
            "horizon": 50,
            "x0": [0.0],
        })
        assert cli.main(["validate", cfg]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["weights"]["schedule"] == "inertial(constant)"
        assert out["inertial_band"]["violated"] == "eta monotonicity / bound"
        assert out["inertial_band"]["first_violation"] == 0

    def test_inertial_band_without_sigma_exits_3_naming_it(self, tmp_path, capsys):
        cfg = fb_config(tmp_path, inertial_band={"eta": 0.2, "theta_tune": 2.0})
        assert cli.main(["validate", cfg]) == 3
        captured = capsys.readouterr()
        assert "configuration error: config needs inertial_band.sigma" in captured.err
        assert captured.out == ""

    def test_invalid_relaxation_exits_3(self, tmp_path):
        cfg = fb_config(tmp_path, relaxation={"policy": "constant", "value": 9.0})
        assert cli.main(["validate", cfg]) == 3


class TestChiCommand:
    def test_constant_eta_table(self, tmp_path, capsys):
        assert cli.main(["chi", "--family", "constant", "--eta", "0.5", "--N", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,chi_n,analytic_bound"
        n, chi_n, bound = lines[1].split(",")
        assert float(chi_n) == pytest.approx(1.0 / (1.0 - math.exp(-0.5)), abs=1e-6)
        assert float(bound) == pytest.approx(math.e / 0.5)

    def test_nesterov_table_respects_bound(self, tmp_path):
        out = tmp_path / "chi.csv"
        code = cli.main([
            "chi", "--family", "nesterov", "--tau", "2.0", "--N", "100", "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 101
        for row in rows:
            n, chi_n, bound = row.split(",")
            assert float(chi_n) <= float(bound) == (int(n) + 7.0) / 2.0

    @pytest.mark.parametrize("args,digest", [
        ("--family zero --N 30",
         "e89cb08c8e5867fd69565b4e179a3f27cc557289b29a63f5127384acddc7ac4f"),
        ("--family constant --eta 0.3 --N 40",
         "749989c29687af7b70b21163e5d3e8e3314131c8970fac0e951b291889bb3ed7"),
        ("--family nesterov --tau 3 --N 50",
         "31f001563e5126bb55e038d88ac86cb6b4c8d9db811f37c792fa988812714db8"),
    ], ids=["zero", "constant", "nesterov"])
    def test_table_bytes_are_pinned(self, args, digest, capsysbinary):
        # the sha256 of the whole table, as "%.17g" formats each float
        assert cli.main(["chi", *args.split()]) == 0
        assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digest

    def test_eta_at_one_exits_3(self, capsys):
        assert cli.main(["chi", "--family", "constant", "--eta", "1.0", "--N", "3"]) == 3

    def test_negative_horizon_exits_3(self, capsys):
        assert cli.main(["chi", "--family", "constant", "--eta", "0.5", "--N", "-2"]) == 3
        captured = capsys.readouterr()
        assert "chi horizon must be >= 0, got -2" in captured.err
        assert captured.out == ""


def memoryless_golden(tmp_path, edit):
    """The memoryless golden config, changed by ``edit``, written to tmp_path."""
    payload = json.loads((GOLDEN / "memoryless" / "config.json").read_text())
    edit(payload)
    return write_config(tmp_path, payload)


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(payload):
        section = payload
        for name in path:
            section = section.setdefault(name, {})
        section[key] = value

    return edit


@pytest.mark.parametrize("commands, edit, named", [
    (("run", "validate"), _set("horizon", True), "horizon must be an integer, got True"),
    (("run", "validate"), _set("stop_residual", False),
     "stop_residual must be a number, got False"),
    (("run", "validate"), _set("solver", "params", "gamma", True),
     "solver.params.gamma must be a number, got True"),
    (("run", "validate"), _set("relaxation", "value", True),
     "relaxation.value must be a number, got True"),
    (("run", "validate"), _set("weights", {"family": "window", "window": True}),
     "weights.window must be an integer, got True"),
    (("run", "validate"), _set("x0", [True]), "x0 must be a vector of numbers, got [True]"),
    (("run", "validate"), _set("x0", False), "x0 must be a vector of numbers, got False"),
    (("run", "validate"), _set("problem", "params", "a", [True]),
     "problem.params.a must be a vector of numbers, got [True]"),
    (("run", "validate"), _set("errors", {"model": "geometric", "rate": 0.5, "direction": [True]}),
     "errors.direction must be a vector of numbers, got [True]"),
    (("run", "validate"), _set("errors", {"model": "geometric", "rate": True, "direction": [0.1]}),
     "errors.rate must be a number, got True"),
    (("run", "validate"), _set("errors", {"model": "custom", "values": [[0.1]], "layer": True}),
     "errors.layer must be an integer, got True"),
    (("run", "validate"), _set("errors", {"model": "custom", "values": [[0.1], [1.0, True]]}),
     "errors.values[1] must be a vector of numbers, got [1.0, True]"),
    (("run",), _set("seed", True), "seed must be an integer, got True"),
    (("validate",), _set("inertial_band", "sigma", False),
     "inertial_band.sigma must be a number, got False"),
], ids=["horizon", "stop_residual", "solver.params.gamma", "relaxation.value", "weights.window",
        "x0-entry", "x0", "problem.params.a", "errors.direction", "errors.rate", "errors.layer",
        "errors.values", "seed", "inertial_band.sigma"])
def test_json_boolean_in_place_of_a_number_exits_3_naming_the_key(
    tmp_path, monkeypatch, capsys, commands, edit, named
):
    # int(True) and float(True) would read them as 1 and 0
    monkeypatch.chdir(tmp_path)
    cfg = memoryless_golden(tmp_path, edit)
    for command in commands:
        assert cli.main([command, cfg]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {named}\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_repeated_main_calls_share_one_parser_and_keep_every_output(
    tmp_path, monkeypatch, capsysbinary
):
    constructed = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    case = GOLDEN / "window3"

    def run_matches_golden(out_dir):
        assert cli.main(["run", str(case / "config.json"), "--out-dir", str(out_dir)]) == 0
        for filename in ("trace.csv", "report.json"):
            assert (out_dir / filename).read_bytes() == (case / filename).read_bytes(), filename
        assert capsysbinary.readouterr().out.startswith(b"stop=max_iters ")

    run_matches_golden(tmp_path / "first")
    assert cli.main(["validate", str(case / "config.json")]) == 0
    assert capsysbinary.readouterr().out == (case / "validate.txt").read_bytes()
    assert cli.main(["chi", "--family", "nesterov", "--tau", "2", "--N", "5"]) == 0
    table = chi_table(WeightSchedule(family="inertial", eta=EtaSchedule(kind="nesterov")), 5)
    assert capsysbinary.readouterr().out.decode() == "".join(
        ["n,chi_n,analytic_bound\n"]
        + [f"{e.n},{float(e.value):.17g},{float(e.analytic_bound):.17g}\n" for e in table]
    )
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", str(case / "config.json"), "--no-such-flag"])
    assert exc.value.code == 2
    assert "--no-such-flag" in capsysbinary.readouterr().err.decode()
    run_matches_golden(tmp_path / "second")
    # one parser and its three subparsers, at most once across all calls
    assert len(constructed) <= 4, constructed

    monkeypatch.undo()
    shared, fresh = cli.build_parser(), cli.build_parser.__wrapped__()
    assert shared is cli.build_parser()
    assert shared.format_help() == fresh.format_help()
    for command in ("run", "validate", "chi"):
        helps = []
        for parse in (cli.main, fresh.parse_args):
            with pytest.raises(SystemExit) as exc:
                parse([command, "--help"])
            assert exc.value.code == 0
            helps.append(capsysbinary.readouterr().out.decode())
        assert helps[0] == helps[1]
        assert helps[0].startswith(f"usage: affiter {command} ")


def per_field_csv(trace, dists=None, cert_i=None, cert_ii=None) -> bytes:
    """The trace CSV formatted one field at a time, as a reference."""
    def fmt(x):
        return "" if x is None else format(float(x), ".17g")

    lines = [cli.TRACE_HEADER]
    phis, lambdas, thetas = trace.phis, trace.lambdas, trace.thetas
    for n in range(trace.n_steps):
        cells = [trace.residuals[n], thetas[n], lambdas[n], phis[n],
                 None if dists is None else dists[n],
                 None if cert_i is None else cert_i[n],
                 None if cert_ii is None else cert_ii[n]]
        lines.append(",".join([str(n), *map(fmt, cells)]))
    return ("\n".join(lines) + "\n").encode()


class TestTraceWriter:
    """The column-wise writer against the per-field form, where no golden reaches."""

    @staticmethod
    def trace(reference=None, **extra):
        config = IterationConfig(
            stacks=compose([prox_l1(0.8), gradient_step(0.8, lambda x: x - 2.0, beta=1.0)]),
            weights=window(2), relaxation=constant_relaxation(1.2), x0=np.array([3.0, -1.0]),
            max_iters=25, stop_residual=0.0, reference=reference, **extra,
        )
        return run(config)

    def test_run_without_a_reference_leaves_the_distance_and_slacks_empty(self, tmp_path):
        trace = self.trace()
        assert trace.dist_to_ref is None
        cli._write_trace(tmp_path / "trace.csv", trace)
        written = (tmp_path / "trace.csv").read_bytes()
        assert written == per_field_csv(trace)
        assert written.splitlines()[1].endswith(b",,,")

    def test_float64_slack_arrays(self, tmp_path):
        trace = self.trace(reference=np.array([1.0, 1.0]))
        reports = run_certificates(trace, trace.plan.reference, which=("i", "ii"))
        cert_i, cert_ii = reports["i"].slacks, reports["ii"].slacks
        assert cert_i.dtype == cert_ii.dtype == np.float64
        dists = trace.dist_to_ref
        cli._write_trace(tmp_path / "trace.csv", trace, dists, cert_i, cert_ii)
        assert (tmp_path / "trace.csv").read_bytes() == per_field_csv(trace, dists, cert_i, cert_ii)

    def test_negative_zero_and_subnormals(self, tmp_path):
        # a run with an error model keeps its error norms, which the test
        # edits: theta_1 = lambda_1 * tiny rounds to tiny for lambda_1 in (0.5, 1.5)
        trace = self.trace(reference=np.array([1.0, 1.0]),
                           errors=GeometricError(0.5, [0.1, -0.2]))
        tiny = np.nextafter(0.0, 1.0)
        trace.residuals[0], trace.error_norms[1] = -0.0, (tiny, 0.0)
        assert trace.thetas[1] == tiny
        # the run keeps no distances, so the column is the test's own
        dists = trace.dist_to_ref
        dists[2], dists[5] = 3 * tiny, -0.0
        cert_i = np.linspace(-1.0, 1.0, trace.n_steps)
        cert_ii = np.full(trace.n_steps, -0.0)
        cert_i[3], cert_ii[4] = -tiny, np.finfo(np.float64).tiny / 7
        cli._write_trace(tmp_path / "trace.csv", trace, dists, cert_i, cert_ii)
        written = (tmp_path / "trace.csv").read_bytes()
        assert written == per_field_csv(trace, dists, cert_i, cert_ii)
        assert written.splitlines()[3].split(b",")[5] == b"1.4821969375237396e-323"
        assert written.splitlines()[6].split(b",")[5] == b"-0"
        assert written.splitlines()[1].split(b",")[1] == b"-0"
        assert written.splitlines()[2].split(b",")[2] == b"4.9406564584124654e-324"


@pytest.mark.parametrize("commands, edit, named", [
    (("run", "validate"), _set("horizon", 2.7), "horizon must be an integer, got 2.7"),
    (("run", "validate"), _set("seed", 1.5), "seed must be an integer, got 1.5"),
    (("run", "validate"), _set("weights", {"family": "window", "window": 2.7}),
     "weights.window must be an integer, got 2.7"),
    (("run", "validate"), _set("errors", {"model": "custom", "values": [[0.1]], "layer": 1.5}),
     "errors.layer must be an integer, got 1.5"),
    (("run", "validate"), _set("errors", {"model": "geometric", "rate": 0.5, "direction": [0.1],
                                          "layer": 1.5}),
     "errors.layer must be an integer, got 1.5"),
], ids=["horizon", "seed", "weights.window", "errors.layer-custom", "errors.layer-geometric"])
def test_non_integral_float_in_place_of_an_integer_exits_3_naming_the_key(
    tmp_path, monkeypatch, capsys, commands, edit, named
):
    # int() would truncate it: "horizon": 2.7 ran 2 steps
    monkeypatch.chdir(tmp_path)
    cfg = memoryless_golden(tmp_path, edit)
    for command in commands:
        assert cli.main([command, cfg]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {named}\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_an_integral_float_is_read_as_its_integer(tmp_path, capsys):
    def edit(payload):
        payload.update(horizon=2.0, stop_residual=0, seed=3.0)

    cfg = memoryless_golden(tmp_path, edit)
    assert cli.main(["run", cfg, "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["iterations"] == 2 and report["seed"] == 3
    capsys.readouterr()
    as_float = cli.main(["validate", cfg]), capsys.readouterr().out
    cfg = memoryless_golden(tmp_path, lambda payload: payload.update(horizon=2))
    assert (cli.main(["validate", cfg]), capsys.readouterr().out) == as_float


@pytest.mark.parametrize("key", ["dir", "trace", "report"])
@pytest.mark.parametrize("value", [["x"], 5, None, True])
def test_outputs_value_of_wrong_type_exits_3_before_the_solve(
    tmp_path, monkeypatch, capsys, key, value
):
    # Path() would raise a TypeError after the whole run
    monkeypatch.chdir(tmp_path)
    cfg = memoryless_golden(tmp_path, _set("outputs", key, value))
    monkeypatch.setattr(cli.solvers.SolverPreset, "solve", lambda self: pytest.fail("solved"))
    assert cli.main(["run", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: outputs.{key} must be a string, got {value!r}\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("name", ["", ".", "out/.."])
@pytest.mark.parametrize("key", ["trace", "report"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_output_name_without_a_file_exits_3_before_the_solve(
    tmp_path, monkeypatch, capsys, key, command, name
):
    # out_dir / "" is the directory itself: the run wrote nothing and ended
    # in IsADirectoryError after the whole solve
    monkeypatch.chdir(tmp_path)
    cfg = memoryless_golden(tmp_path, _set("outputs", key, name))
    monkeypatch.setattr(cli.solvers.SolverPreset, "solve", lambda self: pytest.fail("solved"))
    assert cli.main([command, cfg]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: outputs.{key} must name a file, got {name!r}\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_validate_rejects_the_outputs_that_run_rejects(tmp_path, monkeypatch, capsys):
    # validate exited 0 on this config, which run rejects
    monkeypatch.chdir(tmp_path)
    payload = json.loads((GOLDEN / "window3" / "config.json").read_text())
    payload["outputs"] = {"trace": ["x"]}
    cfg = write_config(tmp_path, payload)
    for command in ("run", "validate"):
        assert cli.main([command, cfg]) == 3
        captured = capsys.readouterr()
        assert captured.err == "configuration error: outputs.trace must be a string, got ['x']\n"
        assert captured.out == ""
