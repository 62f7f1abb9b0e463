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
    ``seed`` and ``outputs`` get the checks ``run`` gives them.

``affiter chi --family {zero,constant,nesterov} [--eta E] [--tau T] --N H [--K TRUNC]``
    Tabulate the summability weights ``chi_n`` with their analytic bound as
    CSV ``n,chi_n,analytic_bound``.

The config file is JSON; see the README for the schema.  Trace CSV columns:
``n,residual,theta_n,lambda_n,phi_n,dist_to_ref,cert_i_slack,cert_ii_slack``
with 17 significant digits (empty where unavailable).

``main(argv)`` may be called repeatedly in one process; every call parses
with one shared parser, built on the first call.  ``build_parser()`` returns
that shared parser, which callers must not mutate.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .problems import ProblemSpec, catalog
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


def _fmt(x) -> str:
    return "" if x is None else format(float(x), ".17g")


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


def _integer(value) -> int:
    """``int(value)``, except that a float must be integral (``2.0`` is 2)."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(value)
    return value


_KINDS = {_integer: "an integer", _string: "a string"}


def _field(section: dict, where: str, key: str, convert=None, default=_REQUIRED):
    """``section[key]``, or ``default``, passed through ``convert`` (``_integer``,
    ``_string``, float or a number reader).

    A missing required key, a JSON boolean, or a value that ``convert``
    rejects is a ConfigurationError naming the key as ``where.key``.
    """
    name = f"{where}.{key}" if where else key
    value = section.get(key, default)
    if value is _REQUIRED:
        raise ConfigurationError(f"config needs {name}")
    if convert is None:
        return value
    try:
        if isinstance(value, bool):  # int() and float() would take it
            raise TypeError
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        kind = _KINDS.get(convert, "a number")
        raise ConfigurationError(f"{name} must be {kind}, got {value!r}") from None


def _number(value):
    """A JSON number as the config wrote it (messages quote an int as an int);
    any other value goes through ``float``."""
    return value if type(value) in (int, float) else float(value)


def _number_or_null(value):
    return None if value is None else _number(value)


def _param(params: dict, key: str, default, convert=_number):
    """Remove solver param ``key`` from ``params`` and return it as a number."""
    value = _field(params, "solver.params", key, convert, default)
    params.pop(key, None)
    return value


def _section(cfg: dict, where: str, key: str, default=None) -> dict:
    """``cfg[key]`` as a JSON object: {} when it is missing or empty (null,
    [], ""), ``default`` when missing and given; any other value is a
    ConfigurationError naming the key as ``where.key``."""
    value = cfg.get(key, default)
    if not value:
        return {}
    if not isinstance(value, dict):
        name = f"{where}.{key}" if where else key
        raise ConfigurationError(f"{name} must be an object, got {value!r}")
    return value


def _vector(value, name: str, dim: int | None = None):
    """``as_vector(value, dim)``; a value it cannot convert to floats, or a
    JSON boolean in place of a number, is a ConfigurationError naming the key."""
    try:
        if any(isinstance(v, bool) for v in (value if isinstance(value, list) else [value])):
            raise TypeError
        return as_vector(value, dim=dim)
    except ConfigurationError:
        raise
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be a vector of numbers, got {value!r}") from None


def _weights_from(cfg: dict) -> WeightSchedule | None:
    if not cfg:
        return None
    family = cfg.get("family", "memoryless")
    if family == "inertial":
        eta = _eta_from(_section(cfg, "weights", "eta"), "weights.eta")
        return WeightSchedule(family="inertial", eta=eta)
    return WeightSchedule(family=family, window=_field(cfg, "weights", "window", _integer, 1))


def _eta_from(cfg: dict, where: str = "solver.params.eta") -> EtaSchedule:
    kind = cfg.get("kind", "zero")
    return EtaSchedule(
        kind=kind,
        eta=_field(cfg, where, "eta", float, 0.0),
        tau=_field(cfg, where, "tau", float, 2.0),
    )


def _errors_from(cfg: dict):
    if not cfg or cfg.get("model", "none") == "none":
        return None
    model = cfg["model"]
    if model == "geometric":
        return GeometricError(
            rate=_field(cfg, "errors", "rate", float),
            direction=_vector(_field(cfg, "errors", "direction"), "errors.direction"),
            layer=_field(cfg, "errors", "layer", _integer, 1),
        )
    if model == "custom":
        values = _field(cfg, "errors", "values")
        if not isinstance(values, list):
            raise ConfigurationError(f"errors.values must be a list, got {values!r}")
        values = [
            None if v is None else _vector(v, f"errors.values[{k}]") for k, v in enumerate(values)
        ]
        layer = _field(cfg, "errors", "layer", _integer, 1)
        if layer < 1:
            raise ConfigurationError("layer index is 1-based")

        def fn(n):
            return values[n] if n < len(values) else None

        per_layer = [None] * (layer - 1) + [fn]
        return SequenceError(per_layer)
    raise ConfigurationError(f"unknown error model {model!r}")


def _ingredient(problem: ProblemSpec, key: str):
    try:
        return problem.ingredients[key]
    except KeyError:
        raise ConfigurationError(
            f"problem {problem.name!r} provides no {key!r} ingredient for this solver"
        ) from None


def _outputs_from(cfg: dict) -> tuple[str, str, str]:
    """The ``outputs`` directory, trace name and report name.  A value that is
    not a string, or a name with no file part (``""``, ``"."``, ``".."``), is
    a ConfigurationError naming its key; ``run`` and ``validate`` both check
    them before building anything."""
    outputs = _section(cfg, "", "outputs")
    out_dir, trace_name, report_name = (
        _field(outputs, "outputs", key, _string, default)
        for key, default in (("dir", "."), ("trace", "trace.csv"), ("report", "report.json"))
    )
    for key, name in (("trace", trace_name), ("report", report_name)):
        if Path(name).name in ("", ".."):
            raise ConfigurationError(f"outputs.{key} must name a file, got {name!r}")
    return out_dir, trace_name, report_name


def _build_preset(cfg: dict) -> tuple[solvers.SolverPreset, ProblemSpec]:
    problem_cfg = _section(cfg, "", "problem")
    if not problem_cfg:
        raise ConfigurationError("config needs a problem section")
    problem_params = dict(_section(problem_cfg, "problem", "params"))
    problem_name = _field(problem_cfg, "problem", "name")
    # typed here so that a wrong type names its key; catalog rejects unknown keys
    if problem_name == "l1_quadratic" and "a" in problem_params:
        problem_params["a"] = _vector(problem_params["a"], "problem.params.a")
    if problem_name == "rotation_fixed_point" and "angle" in problem_params:
        problem_params["angle"] = _field(problem_params, "problem.params", "angle", float)
    problem = catalog(problem_name, **problem_params)
    solver_cfg = _section(cfg, "", "solver")
    if not solver_cfg:
        raise ConfigurationError("config needs a solver section")
    name = _field(solver_cfg, "solver", "name")
    params = dict(_section(solver_cfg, "solver", "params"))
    weights = _weights_from(_section(cfg, "", "weights"))
    horizon = _field(cfg, "", "horizon", _integer, 200)
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    stop_residual = _field(cfg, "", "stop_residual", float, 1e-10)
    x0 = _vector(cfg.get("x0", np.zeros(problem.dim)), "x0", dim=problem.dim)
    relax_cfg = _section(cfg, "", "relaxation")
    policy = relax_cfg.get("policy", "constant")
    if policy != "constant":
        raise ConfigurationError(f"unsupported relaxation policy {policy!r} (only \"constant\")")
    lam = _param(params, "lambda", 1.0, _number_or_null)
    lam = _field(relax_cfg, "relaxation", "value", _number_or_null, lam)
    error_model = _errors_from(_section(cfg, "", "errors"))

    common = dict(max_iters=horizon, stop_residual=stop_residual, reference=problem.reference)
    if name == "forward_backward":
        variant = params.pop("variant", "memoryless")
        eta_cfg = _section(params, "solver.params", "eta", {"kind": "nesterov"})
        params.pop("eta", None)
        eta = _eta_from(eta_cfg) if variant == "inertial" else None
        preset = solvers.forward_backward(
            A=_ingredient(problem, "A"),
            B=problem.ingredients.get("grad"),
            beta=problem.beta,
            gamma=_param(params, "gamma", 1.0),
            x0=x0,
            epsilon=_param(params, "epsilon", 0.1),
            lam=lam,
            weights=weights,
            variant=variant,
            eta=eta,
            **common,
        )
    elif name == "peaceman_rachford":
        B = _ingredient(problem, "B")
        gamma = _param(params, "gamma", 1.0)
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
            xi=_param(params, "xi", 1.0),
            lam=lam,
            eta_low=_param(params, "eta_low", 0.5),
            epsilon=_param(params, "epsilon", 0.05),
            weights=weights,
            **common,
        )
    elif name == "krasnoselskii_mann":
        variant = params.pop("variant", "mean")
        eta_cfg = _section(params, "solver.params", "eta", {"kind": "constant", "eta": 0.2})
        params.pop("eta", None)
        eta = _eta_from(eta_cfg) if variant == "inertial" else None
        preset = solvers.krasnoselskii_mann(
            T=_ingredient(problem, "T"),
            x0=x0,
            variant=variant,
            weights=weights or (WeightSchedule(family="window", window=2) if variant == "mean" else None),
            eta=eta,
            lam=lam,
            sigma=_param(params, "sigma", 0.2),
            theta_tune=_param(params, "theta_tune", 2.0 / 3.0),
            **common,
        )
    else:
        raise ConfigurationError(f"unknown solver preset {name!r}")
    if params:
        raise ConfigurationError(f"unknown {name} params: {', '.join(map(repr, params))}")
    if error_model is not None:
        preset.config.errors = error_model
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
    seed = _field(cfg, "", "seed", _integer, 0)
    out_dir, trace_name, report_name = _outputs_from(cfg)
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
    _field(cfg, "", "seed", _integer, 0)  # only run reads these; both check them
    _outputs_from(cfg)
    horizon = _field(cfg, "", "horizon", _integer, 200)
    preset, _problem = _build_preset(cfg)
    weights_report = validate_weights(preset.config.weights, horizon)
    band_cfg = _section(cfg, "", "inertial_band")
    # one sweep: the band condition at n reads omega_{n+1}, so it needs two more steps
    steps = horizon + 2 if band_cfg else horizon
    plan = _prevalidate(dataclasses.replace(preset.config, max_iters=steps))
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
    if band_cfg:
        params = InertialBandParams(
            eta=_field(band_cfg, "inertial_band", "eta", float),
            sigma=_field(band_cfg, "inertial_band", "sigma", float),
            theta_tune=_field(band_cfg, "inertial_band", "theta_tune", float),
        )
        phis = [stack.phi for stack in plan.stacks or [preset.config.stacks] * steps]
        etas = plan.etas if plan.etas is not None else [0.0] * steps
        band = inertial_band_validate(params, phis, plan.lambdas, etas)
        out["inertial_band"] = {
            "ok": band.ok,
            "violated": band.violated,
            "first_violation": band.first_violation,
            "lambda_margin": band.lambda_margin,
        }
        if not band.ok:
            print(json.dumps(out, indent=2))
            return EXIT_CONFIG
    print(json.dumps(out, indent=2))
    return EXIT_OK if weights_report.ok else EXIT_CONFIG


def cmd_chi(args) -> int:
    eta = EtaSchedule(kind=args.family, eta=args.eta, tau=args.tau)
    schedule = WeightSchedule(family="inertial", eta=eta)
    table = chi_table(schedule, horizon=args.N, truncation=args.K)
    lines = ["n,chi_n,analytic_bound"]
    for entry in table:
        lines.append(f"{entry.n},{_fmt(entry.value)},{_fmt(entry.analytic_bound)}")
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
