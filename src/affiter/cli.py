"""Config-driven command line: run solvers, validate schedules, tabulate chi.

Commands
--------
``affiter run <config.json> [--out-dir DIR]``
    Build the configured problem + solver preset, iterate, and write the
    trace CSV and report JSON.  Exit 0 on a clean stop, 2 on numerical
    divergence, 3 on a configuration error.

``affiter validate <config.json>``
    Validate the weight array, relaxation band, and (when the config selects
    the custom inertial band) the inertial parameters, without iterating.
    The relaxation range and the band's sequences come from one run of the
    pre-pass, over two steps past the horizon when a band is checked.

``affiter chi --family {zero,constant,nesterov} [--eta E] [--tau T] --N H [--K TRUNC]``
    Tabulate the summability weights ``chi_n`` with their analytic bound as
    CSV ``n,chi_n,analytic_bound``.

The config file is JSON; see the README for the schema.  ``run`` and
``validate`` check the same keys, each as a strict JSON kind, before building
anything.  Trace CSV columns:
``n,residual,theta_n,lambda_n,phi_n,dist_to_ref,cert_i_slack,cert_ii_slack``
with 17 significant digits (empty where unavailable).

``main(argv)`` may be called repeatedly in one process; every call parses
with one shared parser, built on the first call.  ``build_parser()`` returns
that shared parser, which callers must not mutate.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import solvers
from .certificates import (
    InertialBandParams,
    inertial_band_validate,
    run_certificates,
)
from .engine import GeometricError, SequenceError, _prevalidate
from .errors import (
    CertificateUnavailableError,
    ConfigurationError,
    NumericalDivergence,
)
from .problems import PROBLEM_PARAMS, ProblemSpec, catalog
from .schedules import (
    EtaSchedule,
    WeightSchedule,
    chi_table,
    validate_weights,
)
from .space import as_vector

EXIT_OK = 0
EXIT_DIVERGED = 2
EXIT_CONFIG = 3

TRACE_HEADER = "n,residual,theta_n,lambda_n,phi_n,dist_to_ref,cert_i_slack,cert_ii_slack"


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"config {path} must hold a JSON object")
    return cfg


_REQUIRED = object()


def _number(value):
    """An int or a float, never a bool or a string; kept as written for messages."""
    if type(value) not in (int, float):
        raise TypeError(value)
    return value


def _float(value) -> float:
    return float(_number(value))


def _number_or_null(value):
    return None if value is None else _number(value)


def _integer(value) -> int:
    """An int, or an integral float (``2.0`` is 2)."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise TypeError(value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def _object(value) -> dict:
    """A JSON object; null, [] and "" read as {}."""
    if value is None or value == [] or value == "":
        return {}
    if not isinstance(value, dict):
        raise TypeError(value)
    return value


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(value)
    return value


def _vector(value):
    """A number or a list of numbers, as the config wrote it."""
    for entry in value if type(value) is list else [value]:
        _float(entry)
    return value


_KINDS = {_integer: "an integer", _string: "a string", _object: "an object",
          _list: "a list", _vector: "a vector of numbers"}


def _as(kind, value, path: str):
    """``kind(value)``; a value of another kind is a ConfigurationError naming ``path``."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        name = _KINDS.get(kind, "a number")
        raise ConfigurationError(f"{path} must be {name}, got {value!r}") from None


def _read(section: dict, path: str, kind, default=_REQUIRED):
    """The value at the dotted ``path`` as ``kind`` reads it; ``section`` holds
    its last key.  ``default`` is returned as given when the key is missing;
    a missing required key is a ConfigurationError naming ``path``."""
    key = path.rpartition(".")[2]
    if key in section:
        return _as(kind, section[key], path)
    if default is _REQUIRED:
        raise ConfigurationError(f"config needs {path}")
    return default


#: the ``solver.params`` each preset reads, with the kind each reads as; a
#: param the config omits takes the builder's default
SOLVER_PARAMS = {
    "forward_backward": {"variant": _string, "gamma": _number, "epsilon": _number,
                         "lambda": _number_or_null, "eta": _object},
    "peaceman_rachford": {"gamma": _number},
    "polyak_subgradient": {"xi": _number, "eta_low": _number, "epsilon": _number,
                           "lambda": _number},
    "krasnoselskii_mann": {"variant": _string, "eta": _object, "sigma": _number,
                           "theta_tune": _number, "lambda": _number},
}

#: the kind of each ``problem.params`` key in ``problems.PROBLEM_PARAMS``
_PROBLEM_PARAM_KINDS = {"a": _vector, "angle": _float, "x0": _vector}


def _weights_from(cfg: dict) -> WeightSchedule | None:
    if not cfg:
        return None
    family = _read(cfg, "weights.family", _string, "memoryless")
    if family == "inertial":
        eta = _eta_from(_read(cfg, "weights.eta", _object, {}), "weights.eta")
        return WeightSchedule(family="inertial", eta=eta)
    return WeightSchedule(family=family, window=_read(cfg, "weights.window", _integer, 1))


def _eta_from(cfg: dict, where: str = "solver.params.eta") -> EtaSchedule:
    return EtaSchedule(
        kind=_read(cfg, f"{where}.kind", _string, "zero"),
        eta=_read(cfg, f"{where}.eta", _float, 0.0),
        tau=_read(cfg, f"{where}.tau", _float, 2.0),
    )


def _errors_from(cfg: dict):
    model = _read(cfg, "errors.model", _string, "none")
    if model == "none":
        return None
    if model == "geometric":
        return GeometricError(
            rate=_read(cfg, "errors.rate", _float),
            direction=as_vector(_read(cfg, "errors.direction", _vector)),
            layer=_read(cfg, "errors.layer", _integer, 1),
        )
    if model == "custom":
        values = [
            None if v is None else as_vector(_as(_vector, v, f"errors.values[{k}]"))
            for k, v in enumerate(_read(cfg, "errors.values", _list))
        ]
        layer = _read(cfg, "errors.layer", _integer, 1)
        if layer < 1:
            raise ConfigurationError("layer index is 1-based")
        return SequenceError([None] * (layer - 1) + [solvers._seq(values)])
    raise ConfigurationError(f"unknown error model {model!r}")


def _ingredient(problem: ProblemSpec, key: str):
    try:
        return problem.ingredients[key]
    except KeyError:
        raise ConfigurationError(
            f"problem {problem.name!r} provides no {key!r} ingredient for this solver"
        ) from None


def _settings_from(cfg: dict) -> tuple[int, tuple[str, str, str], InertialBandParams | None]:
    """``seed``; the ``outputs`` directory, trace name and report name; and the
    ``inertial_band`` params, or None.  An output name with no file part
    (``""``, ``"."``, ``".."``) is a ConfigurationError naming its key."""
    seed = _read(cfg, "seed", _integer, 0)
    outputs = _read(cfg, "outputs", _object, {})
    out_dir, trace_name, report_name = (
        _read(outputs, f"outputs.{key}", _string, default)
        for key, default in (("dir", "."), ("trace", "trace.csv"), ("report", "report.json"))
    )
    for key, name in (("trace", trace_name), ("report", report_name)):
        if Path(name).name in ("", ".."):
            raise ConfigurationError(f"outputs.{key} must name a file, got {name!r}")
    band_cfg = _read(cfg, "inertial_band", _object, {})
    band = InertialBandParams(
        eta=_read(band_cfg, "inertial_band.eta", _float),
        sigma=_read(band_cfg, "inertial_band.sigma", _float),
        theta_tune=_read(band_cfg, "inertial_band.theta_tune", _float),
    ) if band_cfg else None
    return seed, (out_dir, trace_name, report_name), band


def _build_preset(cfg: dict) -> tuple[solvers.SolverPreset, ProblemSpec]:
    problem_cfg = _read(cfg, "problem", _object, {})
    if not problem_cfg:
        raise ConfigurationError("config needs a problem section")
    problem_params = _read(problem_cfg, "problem.params", _object, {})
    problem_name = _read(problem_cfg, "problem.name", _string)
    # typed here so that a wrong kind names its key; catalog rejects unknown keys
    problem = catalog(problem_name, **{
        key: _read(problem_params, f"problem.params.{key}", _PROBLEM_PARAM_KINDS[key])
        if key in PROBLEM_PARAMS.get(problem_name, ()) else value
        for key, value in problem_params.items()
    })
    solver_cfg = _read(cfg, "solver", _object, {})
    if not solver_cfg:
        raise ConfigurationError("config needs a solver section")
    name = _read(solver_cfg, "solver.name", _string)
    if name not in SOLVER_PARAMS:
        raise ConfigurationError(f"unknown solver preset {name!r}")
    kinds = SOLVER_PARAMS[name]
    params = _read(solver_cfg, "solver.params", _object, {})
    unknown = [key for key in params if key not in kinds]
    if unknown:
        raise ConfigurationError(f"unknown {name} params: {', '.join(map(repr, unknown))}")
    # the builders take lambda as lam; a param the config omits keeps its default
    kwargs = {
        "lam" if key == "lambda" else key: _read(params, f"solver.params.{key}", kinds[key])
        for key in params
    }
    weights = _weights_from(_read(cfg, "weights", _object, {}))
    horizon = _read(cfg, "horizon", _integer, 200)
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    stop_residual = _read(cfg, "stop_residual", _float, 1e-10)
    x0 = as_vector(_read(cfg, "x0", _vector, np.zeros(problem.dim)), dim=problem.dim)
    relax_cfg = _read(cfg, "relaxation", _object, {})
    policy = _read(relax_cfg, "relaxation.policy", _string, "constant")
    if policy != "constant":
        raise ConfigurationError(f"unsupported relaxation policy {policy!r} (only \"constant\")")
    if "value" in relax_cfg:
        kwargs["lam"] = _read(relax_cfg, "relaxation.value", kinds.get("lambda", _number))
    error_model = _errors_from(_read(cfg, "errors", _object, {}))

    # the builder applies its own error rules to the config's model
    common = dict(max_iters=horizon, stop_residual=stop_residual, reference=problem.reference,
                  errors=error_model)
    if name == "forward_backward":
        eta = kwargs.pop("eta", {"kind": "nesterov"})
        preset = solvers.forward_backward(
            A=_ingredient(problem, "A"),
            B=problem.ingredients.get("grad"),
            beta=problem.beta,
            gamma=kwargs.pop("gamma", 1.0),
            x0=x0,
            weights=weights,
            eta=_eta_from(eta) if kwargs.get("variant") == "inertial" else None,
            **kwargs,
            **common,
        )
    elif name == "peaceman_rachford":
        lam = kwargs.get("lam", 1.0)
        if lam != 1.0:
            raise ConfigurationError(f"relaxation.value must be 1 for peaceman_rachford, got {lam!r}")
        B = _ingredient(problem, "B")
        gamma = kwargs.get("gamma", 1.0)
        # the orbit converges to x* = y* + gamma B(y*), not to the solution y*
        y_ref = problem.reference
        common["reference"] = (
            None if y_ref is None or B.mapping is None else y_ref + gamma * B.mapping(y_ref)
        )
        preset = solvers.peaceman_rachford(
            A=_ingredient(problem, "A"),
            B=B,
            gamma=gamma,
            weights=weights or WeightSchedule(family="window", window=2),
            x0=x0,
            **common,
        )
    elif name == "polyak_subgradient":
        preset = solvers.polyak_subgradient(
            f=_ingredient(problem, "f"),
            s=_ingredient(problem, "s"),
            theta=problem.theta,
            region_projector=_ingredient(problem, "projector"),
            x0=x0,
            weights=weights,
            **kwargs,
            **common,
        )
    else:  # krasnoselskii_mann
        eta = kwargs.pop("eta", {"kind": "constant", "eta": 0.2})
        preset = solvers.krasnoselskii_mann(
            T=_ingredient(problem, "T"),
            x0=x0,
            weights=weights or WeightSchedule(family="window", window=2),  # only mean reads it
            eta=_eta_from(eta) if kwargs.get("variant") == "inertial" else None,
            **kwargs,
            **common,
        )
    return preset, problem


def _write_trace(path: Path, trace, cert_i=None, cert_ii=None) -> None:
    steps = trace.n_steps

    def column(values):
        if values is None:
            return [""] * steps
        # for a float, "%.17g" % v is format(float(v), ".17g") without a call per cell
        values = values.tolist() if isinstance(values, np.ndarray) else values
        return ["%.17g" % v for v in values]

    columns = (trace.residuals, trace.thetas, trace.lambdas, trace.phis,
               trace.dist_to_ref, cert_i, cert_ii)
    rows = zip(map(str, range(steps)), *map(column, columns))
    path.write_text("\n".join([TRACE_HEADER, *map(",".join, rows)]) + "\n")


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    seed, (out_dir, trace_name, report_name), _band = _settings_from(cfg)
    preset, problem = _build_preset(cfg)
    solution, trace = preset.solve()

    out_dir = Path(args.out_dir or out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / trace_name
    report_path = out_dir / report_name

    cert_summary = {}
    cert_i = cert_ii = None
    if preset.config.reference is not None:
        reports = run_certificates(trace, preset.config.reference, which=("i", "ii"))
        cert_i = reports["i"].slacks
        cert_ii = reports["ii"].slacks
        cert_summary = {
            name: {
                "min_slack": rep.min_slack,
                "passed": rep.passed,
                "first_violation": rep.first_violation,
                "tolerance": rep.tolerance,
            }
            for name, rep in reports.items()
        }

    _write_trace(trace_path, trace, cert_i, cert_ii)
    final_dist = trace.final_dist_to_ref()
    report = {
        "problem": problem.name,
        "solver": preset.name,
        "seed": seed,
        "stop_reason": trace.stop_reason,
        "iterations": trace.n_steps,
        "final_residual": trace.final_residual,
        "final_dist_to_ref": final_dist,
        "solution": [float(v) for v in np.atleast_1d(solution)],
        "certificates": cert_summary,
        "flags": list(trace.flags),
    }
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"stop={trace.stop_reason} iterations={trace.n_steps} "
          f"residual={trace.final_residual:.3e}")
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    _seed, _outputs, band_params = _settings_from(cfg)  # only run uses seed and outputs
    preset, _problem = _build_preset(cfg)
    horizon = preset.config.max_iters
    weights_report = validate_weights(preset.config.weights, horizon)
    # one sweep: the band condition at n reads omega_{n+1}, so it needs two more steps
    steps = horizon if band_params is None else horizon + 2
    plan = _prevalidate(preset.config, steps)
    lam_probe = plan.lambdas[:horizon]
    out = {
        "weights": {
            "schedule": weights_report.schedule,
            "sup_abs_row_sum": weights_report.sup_abs_row_sum,
            "max_row_sum_deviation": weights_report.max_row_sum_deviation,
            "decay_status": weights_report.decay_status,
            "chi_certificate": weights_report.chi_certificate,
            "toeplitz_deviation": weights_report.toeplitz_deviation,
            "ok": weights_report.ok,
        },
        "relaxation": {"min": min(lam_probe), "max": max(lam_probe)},
    }
    if band_params is not None:
        phis = [stack.phi for stack in plan.stacks or [preset.config.stacks] * steps]
        etas = plan.etas if plan.etas is not None else [0.0] * steps
        band = inertial_band_validate(band_params, phis, plan.lambdas, etas)
        out["inertial_band"] = {
            "ok": band.ok,
            "violated": band.violated,
            "first_violation": band.first_violation,
            "lambda_margin": band.lambda_margin,
        }
    print(json.dumps(out, indent=2))
    return EXIT_OK if weights_report.ok and (band_params is None or band.ok) else EXIT_CONFIG


def cmd_chi(args) -> int:
    eta = EtaSchedule(kind=args.family, eta=args.eta, tau=args.tau)
    schedule = WeightSchedule(family="inertial", eta=eta)
    table = chi_table(schedule, horizon=args.N, truncation=args.K)
    lines = ["n,chi_n,analytic_bound"]
    for entry in table:
        lines.append("%d,%.17g,%.17g" % (entry.n, entry.value, entry.analytic_bound))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(prog="affiter", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured solver")
    p_run.add_argument("config")
    p_run.add_argument("--out-dir", default=None)
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="validate a config without iterating")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate)

    p_chi = sub.add_parser("chi", help="tabulate summability weights")
    p_chi.add_argument("--family", choices=("zero", "constant", "nesterov"), required=True)
    p_chi.add_argument("--eta", type=float, default=0.0)
    p_chi.add_argument("--tau", type=float, default=2.0)
    p_chi.add_argument("--N", type=int, required=True)
    p_chi.add_argument("--K", type=int, default=200)
    p_chi.add_argument("--out", default=None)
    p_chi.set_defaults(func=cmd_chi)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalDivergence as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ConfigurationError, CertificateUnavailableError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
