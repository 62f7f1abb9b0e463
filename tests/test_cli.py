import json
import math
from pathlib import Path

import numpy as np
import pytest

from affiter import cli
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

    def test_eta_at_one_exits_3(self, capsys):
        assert cli.main(["chi", "--family", "constant", "--eta", "1.0", "--N", "3"]) == 3

    def test_negative_horizon_exits_3(self, capsys):
        assert cli.main(["chi", "--family", "constant", "--eta", "0.5", "--N", "-2"]) == 3
        captured = capsys.readouterr()
        assert "chi horizon must be >= 0, got -2" in captured.err
        assert captured.out == ""
