"""Each named exit path raises its exception type with its exact message.

One table per entry point: the library calls, and ``affiter run``, whose
configuration errors exit 3 with the message on stderr.  Every entry is a
``raise`` that no other test reached, or reached without reading its
message; the messages are part of the interface, so the table pins them
character for character.
"""

import json

import numpy as np
import pytest

from affiter import (
    AveragedOperator,
    ConfigurationError,
    EtaSchedule,
    GeometricError,
    InertialBandParams,
    InvalidReferenceError,
    InvalidScheduleError,
    IterationConfig,
    RelaxationSchedule,
    WeightSchedule,
    affine_monotone,
    brute_oracle,
    catalog,
    cesaro,
    chi_table,
    chi_value,
    cli,
    compose,
    composite_phi,
    constant_relaxation,
    error_budget_check,
    forward_backward,
    gradient_step,
    gronwall_envelope,
    inertial,
    inertial_band_validate,
    krasnoselskii_mann,
    l1_subdifferential,
    memoryless,
    normal_cone,
    peaceman_rachford,
    polyak_subgradient,
    projector,
    prox_l1,
    reflector_operator,
    relaxed,
    resolvent_operator,
    run_certificates,
    summability_monitor,
    validate_weights,
    window,
)
from affiter.certificates import verify_reference
from affiter.operators import tail_apply
from affiter.schedules import relaxation_at
from affiter.space import BLOCK_FLOATS, Rows, affine_combine

L1 = l1_subdifferential()
BAND = InertialBandParams(eta=0.3, sigma=0.1, theta_tune=1.0)
CONSTANT_ETA = EtaSchedule(kind="constant", eta=0.3)


def fb(**kwargs):
    prob = catalog("l1_quadratic", a=[2.0])
    args = dict(A=prob.ingredients["A"], B=prob.ingredients["grad"], beta=prob.beta,
                gamma=1.0, x0=[0.0])
    args.update(kwargs)
    return forward_backward(**args)


def polyak(**kwargs):
    prob = catalog("polyak_norm_over_halfspace")
    return polyak_subgradient(
        f=prob.ingredients["f"], s=prob.ingredients["s"], theta=prob.theta,
        region_projector=prob.ingredients["projector"], x0=[3.0, 2.0], max_iters=5,
        **kwargs,
    )


def pr(**kwargs):
    prob = catalog("l1_quadratic", a=[2.0])
    return peaceman_rachford(A=prob.ingredients["A"], B=prob.ingredients["B"], gamma=1.0,
                             weights=kwargs.pop("weights", window(2)), x0=[0.0], **kwargs)


def km(**kwargs):
    T = catalog("rotation_fixed_point", angle=1.0).ingredients["T"]
    return krasnoselskii_mann(T=T, x0=[1.0, 0.0], **kwargs)


NAN = float("nan")


def budget_at_horizon(horizon):
    config = IterationConfig(stacks=compose([prox_l1(1.0)]), weights=memoryless(),
                             relaxation=constant_relaxation(1.0), x0=[1.0])
    error_budget_check(config, horizon)


def budget_of_an_error_of_another_dimension():
    # the run raises the same message at its first step
    prob = catalog("l1_quadratic", a=[2.0, 1.0])
    preset = forward_backward(A=prob.ingredients["A"], B=prob.ingredients["grad"],
                              beta=prob.beta, gamma=1.0, x0=[0.0, 0.0],
                              a_errors=lambda n: [0.1, 0.2, 0.3])
    error_budget_check(preset.config, 5)


class SupOneEta:
    """A duck-typed eta schedule whose declared supremum is 1."""

    kind = "custom"
    tau = 2.0

    def value(self, n):
        return 0.5

    def sup(self):
        return 1.0


def bad_reference_of_a_quasinonexpansive_stack():
    # Polyak's stack ends in a subgradient projector (case "b"), so each layer
    # is checked: (5, 5) lies in the halfspace x_0 >= 1 but above the level set
    _, trace = polyak().solve()
    verify_reference(trace, np.array([5.0, 5.0]))


def certificates_named_by_a_string(which):
    _, trace = fb(max_iters=5).solve()
    run_certificates(trace, [1.0], which=which)


def long_row_past_capacity():
    rows = Rows(BLOCK_FLOATS, 1)
    rows.append(np.zeros(BLOCK_FLOATS))
    rows.append(np.zeros(BLOCK_FLOATS))


LIBRARY = [
    # operators
    ("affine_monotone-dense-shape", lambda: affine_monotone(np.ones((3, 3)), [0.0, 0.0]),
     ConfigurationError, "matrix shape (3, 3) does not match offset 2"),
    ("prox_l1-gamma", lambda: prox_l1(0.0),
     ConfigurationError, "prox step gamma must be positive"),
    ("resolvent_operator-gamma", lambda: resolvent_operator(0.0, L1),
     ConfigurationError, "resolvent step gamma must be positive"),
    ("reflector_operator-gamma", lambda: reflector_operator(-1.0, L1),
     ConfigurationError, "reflector step gamma must be positive"),
    ("projector-box-lo-above-hi", lambda: projector("box", lo=[1.0], hi=[0.0]),
     ConfigurationError, "box has lo > hi"),
    ("projector-halfspace-zero-normal",
     lambda: projector("halfspace", normal=[0.0, 0.0], offset=1.0),
     ConfigurationError, "halfspace normal must be nonzero"),
    ("projector-hyperplane-zero-normal",
     lambda: projector("hyperplane", normal=[0.0], offset=0.0),
     ConfigurationError, "hyperplane normal must be nonzero"),
    ("projector-unknown-kind", lambda: projector("sphere"),
     ConfigurationError, "unknown projector set 'sphere'"),
    ("projector-missing-param", lambda: projector("ball", radius=1.0),
     ConfigurationError, "missing projector(ball) params: 'center'"),
    ("projector-missing-params", lambda: projector("box"),
     ConfigurationError, "missing projector(box) params: 'lo', 'hi'"),
    ("projector-unknown-params", lambda: projector("nonneg", radius=3.0, bogus=1),
     ConfigurationError, "unknown projector(nonneg) params: 'radius', 'bogus'"),
    ("normal_cone-unknown-param",
     lambda: normal_cone("ball", center=[0.0], radius=1.0, lo=[0.0]),
     ConfigurationError, "unknown projector(ball) params: 'lo'"),
    # the domain's boundedness is the projector's range, so no caller asserts it
    ("normal_cone-bounded",
     lambda: normal_cone("ball", bounded=True, center=[0.0], radius=1.0),
     ConfigurationError, "unknown projector(ball) params: 'bounded'"),
    ("relaxed-alpha", lambda: relaxed(AveragedOperator(fn=np.copy, alpha=1.0), 1.0),
     ConfigurationError, "relaxed() needs a firmly (quasi)nonexpansive operator"),
    ("relaxed-xi", lambda: relaxed(prox_l1(1.0), 2.0),
     ConfigurationError, "relaxation xi=2.0 outside (0, 2)"),
    ("composite_phi-empty", lambda: composite_phi([]),
     ConfigurationError, "empty layer list"),
    ("compose-empty", lambda: compose([]),
     ConfigurationError, "a stack needs at least one layer"),
    ("tail_apply-index", lambda: tail_apply(compose([prox_l1(1.0)]), 2, np.zeros(1)),
     ConfigurationError, "tail index 2 outside 1..1"),
    ("AveragedOperator-alpha", lambda: AveragedOperator(fn=abs, alpha=0.0),
     ConfigurationError, "alpha must lie in (0, 1], got 0.0"),
    ("AveragedOperator-kind", lambda: AveragedOperator(fn=abs, alpha=0.5, kind="firm"),
     ConfigurationError, "unknown operator class 'firm'"),
    ("l1_subdifferential-weight", lambda: l1_subdifferential(0.0),
     ConfigurationError, "l1 weight must be positive"),
    ("l1_subdifferential-weight-nan", lambda: l1_subdifferential(NAN),
     ConfigurationError, "l1 weight must be positive"),
    ("gradient_step-beta", lambda: gradient_step(1.0, abs, 0.0),
     ConfigurationError, "cocoercivity constant beta must be positive"),
    ("gradient_step-beta-nan", lambda: gradient_step(1.0, abs, NAN),
     ConfigurationError, "cocoercivity constant beta must be positive"),
    ("projector-ball-radius", lambda: projector("ball", center=[0.0], radius=0.0),
     ConfigurationError, "ball radius must be positive"),
    ("projector-ball-radius-nan", lambda: projector("ball", center=[0.0], radius=NAN),
     ConfigurationError, "ball radius must be positive"),
    # engine
    ("GeometricError-rate", lambda: GeometricError(1.0, [0.1]),
     ConfigurationError, "geometric error rate must lie in (0, 1)"),
    ("GeometricError-layer-0", lambda: GeometricError(0.5, [0.1], layer=0),
     ConfigurationError, "layer index is 1-based"),
    ("GeometricError-layer-float", lambda: GeometricError(0.5, [0.1], layer=1.5),
     ConfigurationError, "layer index must be an integer, got 1.5"),
    ("GeometricError-layer-bool", lambda: GeometricError(0.5, [0.1], layer=True),
     ConfigurationError, "layer index must be an integer, got True"),
    ("run-geometric-direction-dimension",
     lambda: fb(errors=GeometricError(0.5, [0.1, 0.2])).solve(),
     ConfigurationError, "error direction has dimension 2, but x0 has 1"),
    ("error_budget_check-horizon-0", lambda: budget_at_horizon(0),
     ConfigurationError, "budget horizon must be >= 1"),
    ("error_budget_check-horizon-float", lambda: budget_at_horizon(2.5),
     ConfigurationError, "budget horizon must be an integer, got 2.5"),
    ("error_budget_check-horizon-bool", lambda: budget_at_horizon(True),
     ConfigurationError, "budget horizon must be an integer, got True"),
    ("error_budget_check-sequence-dimension", budget_of_an_error_of_another_dimension,
     ConfigurationError, "dimension mismatch: (2,) vs (3,)"),
    # schedules
    ("chi_value-index-float", lambda: chi_value(memoryless(), 2.5),
     ConfigurationError, "chi index must be an integer, got 2.5"),
    ("chi_value-index-bool", lambda: chi_value(memoryless(), True),
     ConfigurationError, "chi index must be an integer, got True"),
    ("chi_value-index-negative", lambda: chi_value(memoryless(), -3),
     ConfigurationError, "chi index must be >= 0, got -3"),
    ("chi_value-truncation-0", lambda: chi_value(memoryless(), 0, truncation=0),
     ConfigurationError, "chi truncation must be >= 1"),
    ("chi_value-truncation-float", lambda: chi_value(memoryless(), 0, truncation=2.5),
     ConfigurationError, "chi truncation must be an integer, got 2.5"),
    ("chi_value-truncation-bool", lambda: chi_value(memoryless(), 0, truncation=True),
     ConfigurationError, "chi truncation must be an integer, got True"),
    ("chi_table-horizon-negative", lambda: chi_table(memoryless(), -1),
     ConfigurationError, "chi horizon must be >= 0, got -1"),
    ("chi_table-horizon-float", lambda: chi_table(memoryless(), 2.5),
     ConfigurationError, "chi horizon must be an integer, got 2.5"),
    ("chi_table-horizon-bool", lambda: chi_table(memoryless(), True),
     ConfigurationError, "chi horizon must be an integer, got True"),
    ("validate_weights-horizon-0", lambda: validate_weights(memoryless(), 0),
     ConfigurationError, "validation horizon must be >= 1"),
    ("validate_weights-horizon-float", lambda: validate_weights(memoryless(), 2.5),
     ConfigurationError, "validation horizon must be an integer, got 2.5"),
    ("validate_weights-sup-eta-1",
     lambda: validate_weights(WeightSchedule(family="inertial", eta=SupOneEta()), 10),
     InvalidScheduleError, "inertial weights need sup eta < 1 or the nesterov form"),
    ("validate_weights-toeplitz-probe",
     lambda: validate_weights(inertial(EtaSchedule(
         kind="custom", eta=0.5, fn=lambda n: 0.2 if n < 10_000 else 1.5)), 10),
     InvalidScheduleError, "custom eta value 1.5 at n=10000 outside [0, 1)"),
    ("validate_weights-no-rows", lambda: validate_weights([], 5),
     InvalidScheduleError, "validate_weights needs a WeightSchedule, got list"),
    ("EtaSchedule-kind", lambda: EtaSchedule(kind="bogus"),
     ConfigurationError, "unknown eta schedule kind 'bogus'"),
    ("EtaSchedule-custom-no-callable", lambda: EtaSchedule(kind="custom"),
     ConfigurationError, "custom eta schedule needs a callable"),
    ("EtaSchedule-custom-sup", lambda: EtaSchedule(kind="custom", eta=1.0, fn=abs),
     ConfigurationError, "custom eta schedule needs a declared sup in [0, 1)"),
    ("WeightSchedule-family", lambda: WeightSchedule(family="bogus"),
     ConfigurationError, "unknown weight family 'bogus'"),
    ("WeightSchedule-window-0", lambda: WeightSchedule(family="window", window=0),
     ConfigurationError, "window width must be >= 1"),
    ("window-float", lambda: window(2.5),
     ConfigurationError, "window width must be an integer, got 2.5"),
    ("window-bool", lambda: window(True),
     ConfigurationError, "window width must be an integer, got True"),
    ("WeightSchedule-inertial-no-eta", lambda: WeightSchedule(family="inertial"),
     ConfigurationError, "inertial weights need an eta schedule"),
    ("WeightSchedule-row-negative", lambda: memoryless().row(-1),
     ConfigurationError, "row index must be >= 0"),
    ("RelaxationSchedule-constant-no-value", lambda: RelaxationSchedule(policy="constant"),
     ConfigurationError, "constant relaxation needs a value"),
    ("RelaxationSchedule-epsilon", lambda: RelaxationSchedule(policy="fb_band", epsilon=0.0),
     ConfigurationError, "relaxation epsilon must lie in (0, 1)"),
    ("relaxation_at-phi", lambda: relaxation_at(RelaxationSchedule("constant", 1.0), 0, 1.5),
     ConfigurationError, "phi must lie in (0, 1], got 1.5"),
    # certificates
    ("verify_reference-layer", bad_reference_of_a_quasinonexpansive_stack,
     InvalidReferenceError, "reference is not fixed by layer 2 of the stack at n=0"),
    *((f"run_certificates-which-{which}", lambda which=which: certificates_named_by_a_string(which),
       ConfigurationError,
       f"which must be a sequence of certificate names, got {which!r}")
      for which in ("ii", "iii", "iv")),
    ("gronwall_envelope-negative-theta",
     lambda: gronwall_envelope(0.0, [0.1], [0.0], theta_seq=[0.0, -1.0]),
     ConfigurationError, "theta sequence must be nonnegative"),
    ("gronwall_envelope-nan-theta",
     lambda: gronwall_envelope(0.0, [0.1], [0.0], theta_seq=[0.0, NAN]),
     ConfigurationError, "theta sequence must be nonnegative"),
    ("gronwall_envelope-nan-theta0", lambda: gronwall_envelope(NAN, [0.1], [0.0]),
     ConfigurationError, "theta0 must be nonnegative"),
    ("gronwall_envelope-nan-eps", lambda: gronwall_envelope(1.0, [0.1], [NAN]),
     ConfigurationError, "eps sequence must be nonnegative"),
    ("InertialBandParams-eta-1", lambda: InertialBandParams(eta=1.0, sigma=0.1, theta_tune=1.0),
     ConfigurationError, "eta must lie in [0, 1)"),
    ("inertial_band_validate-short", lambda: inertial_band_validate(BAND, [1.0], [1.0], [0.0]),
     ConfigurationError, "need sequences of length >= 2"),
    ("inertial_band_validate-phi",
     lambda: inertial_band_validate(BAND, [1.5, 1.0], [1.0, 1.0], [0.0, 0.0]),
     ConfigurationError, "phi values must lie in (0, 1]"),
    ("inertial_band_validate-phi-nan",
     lambda: inertial_band_validate(BAND, [NAN, 0.5, 0.5], [0.5] * 3, [0.0] * 3),
     ConfigurationError, "phi values must lie in (0, 1]"),
    ("summability_monitor-short-chi", lambda: summability_monitor([1.0, 2.0], chi=[1.0]),
     ConfigurationError, "chi weights shorter than the series"),
    # solvers
    ("peaceman_rachford-zero-steps", lambda: pr(max_iters=0),
     ConfigurationError,
     "peaceman_rachford needs max_iters >= 1: its solution is the y_n of a step"),
    ("forward_backward-variant", lambda: fb(variant="bogus"),
     ConfigurationError, "unknown forward-backward variant 'bogus'"),
    ("forward_backward-proximal-b-errors",
     lambda: fb(variant="proximal_point", b_errors=[[0.1]]),
     ConfigurationError, "the proximal-point variant has no forward layer to perturb"),
    ("forward_backward-proximal-epsilon", lambda: fb(variant="proximal_point", epsilon=0.6),
     ConfigurationError, "epsilon must lie in (0, 1/2)"),
    ("forward_backward-beta", lambda: fb(beta=0.0),
     ConfigurationError, "cocoercivity constant beta must be positive"),
    ("forward_backward-beta-nan", lambda: fb(beta=NAN),
     ConfigurationError, "cocoercivity constant beta must be positive"),
    ("forward_backward-epsilon-band", lambda: fb(beta=1.0, epsilon=0.7),
     ConfigurationError, "epsilon must lie in (0, min(1/2, beta)) = (0, 0.5)"),
    # the gamma band's 1e-12 slack reaches 2 beta when eps < about 5e-13 / beta
    ("forward_backward-gamma-2-beta", lambda: fb(epsilon=1e-13, gamma=2.0),
     ConfigurationError, "gradient step gamma=2.0 outside (0, 2*beta)=(0, 2.0)"),
    ("forward_backward-inertial-no-eta", lambda: fb(variant="inertial"),
     ConfigurationError, "inertial variant needs an eta schedule"),
    ("polyak-eta_low", lambda: polyak(eta_low=1.0),
     ConfigurationError, "eta_low must lie in (0, 1)"),
    ("polyak-signed-weights", lambda: polyak(weights=inertial(CONSTANT_ETA)),
     ConfigurationError, "subgradient projection needs nonnegative weights"),
    # krasnoselskii_mann's weights choose its rules, and each message names them
    ("krasnoselskii_mann-inertial-errors",
     lambda: km(weights=inertial(CONSTANT_ETA), errors=[[0.1, 0.0]]),
     ConfigurationError, "weights inertial(constant) run error-free; errors rejected"),
    ("krasnoselskii_mann-inertial-sup-eta-1",
     lambda: km(weights=inertial(EtaSchedule(kind="nesterov"))),
     ConfigurationError,
     "weights inertial(nesterov) rejected: the inertial fixed-point iteration needs sup eta < 1"),
    ("krasnoselskii_mann-cesaro", lambda: km(weights=cesaro()),
     ConfigurationError, "weights cesaro rejected: the mean-value iteration needs "
     "a nonnegative family with inf mu_{n+1,n} mu_{n+1,n+1} > 0 (window w >= 2)"),
    ("krasnoselskii_mann-mean-lam", lambda: km(weights=window(2), lam=0.5),
     ConfigurationError, "weights window(2) run at unit relaxation; lam must be 1.0"),
    ("krasnoselskii_mann-mean-lam-callable", lambda: km(weights=window(2), lam=lambda n: 1.0),
     ConfigurationError, "weights window(2) run at unit relaxation; lam must be 1.0"),
    # a builder settles its weights in one place: None is the preset's default,
    # a non-schedule is named, and a variant that builds its own rows keeps them
    ("peaceman_rachford-weights-str", lambda: pr(weights="window"),
     InvalidScheduleError, "weights must be a WeightSchedule, got str"),
    ("forward_backward-weights-list", lambda: fb(weights=[1.0]),
     InvalidScheduleError, "weights must be a WeightSchedule, got list"),
    ("polyak-weights-int", lambda: polyak(weights=2),
     InvalidScheduleError, "weights must be a WeightSchedule, got int"),
    ("krasnoselskii_mann-weights-str", lambda: km(weights="window(2)"),
     InvalidScheduleError, "weights must be a WeightSchedule, got str"),
    ("forward_backward-inertial-weights",
     lambda: fb(variant="inertial", eta=CONSTANT_ETA, weights=cesaro()),
     ConfigurationError, "the inertial variant builds its own weights; cesaro rejected"),
    # problems
    ("catalog-unknown-problem", lambda: catalog("bogus"),
     ConfigurationError, "unknown problem 'bogus'"),
    ("brute_oracle-no-objective", lambda: brute_oracle(catalog("rotation_fixed_point")),
     ConfigurationError, "problem rotation_fixed_point has no evaluable objective"),
    ("brute_oracle-resolution-nan",
     lambda: brute_oracle(catalog("l1_quadratic", a=[2.0]), resolution=NAN),
     ConfigurationError, "brute oracle resolution must be positive, got nan"),
    ("brute_oracle-resolution-negative",
     lambda: brute_oracle(catalog("l1_quadratic", a=[2.0]), resolution=-1),
     ConfigurationError, "brute oracle resolution must be positive, got -1"),
    ("brute_oracle-resolution-0",
     lambda: brute_oracle(catalog("l1_quadratic", a=[2.0]), resolution=0),
     ConfigurationError, "brute oracle resolution must be positive, got 0"),
    # space
    ("affine_combine-empty-row", lambda: affine_combine({}, []),
     ConfigurationError, "affine combination of an empty row"),
    ("Rows-long-row-past-capacity", long_row_past_capacity,
     IndexError, "Rows holds at most 1 points"),
]


@pytest.mark.parametrize("call,kind,message", [entry[1:] for entry in LIBRARY],
                         ids=[entry[0] for entry in LIBRARY])
def test_library_exit_path(call, kind, message):
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


FB_CONFIG = {
    "problem": {"name": "l1_quadratic", "params": {"a": [2.0]}},
    "solver": {"name": "forward_backward", "params": {"gamma": 1.0}},
    "horizon": 20,
}

#: (id, the config's JSON, or None for no file, and the message; {path} is the config's path)
CLI = [
    ("unreadable-config", None,
     "cannot read config {path}: [Errno 2] No such file or directory: '{path}'"),
    ("unknown-error-model", dict(FB_CONFIG, errors={"model": "bogus"}),
     "unknown error model 'bogus'"),
    ("no-problem-section", {"solver": FB_CONFIG["solver"]},
     "config needs a problem section"),
    ("no-solver-section", {"problem": FB_CONFIG["problem"]},
     "config needs a solver section"),
    ("unknown-preset", dict(FB_CONFIG, solver={"name": "douglas_rachford"}),
     "unknown solver preset 'douglas_rachford'"),
    ("krasnoselskii_mann-mean-relaxation",
     {"problem": {"name": "rotation_fixed_point"},
      "solver": {"name": "krasnoselskii_mann"},
      "relaxation": {"policy": "constant", "value": 0.5}},
     "weights window(2) run at unit relaxation; lam must be 1.0"),
    # the config's weights section is the one source of rows
    ("krasnoselskii_mann-variant",
     {"problem": {"name": "rotation_fixed_point"},
      "solver": {"name": "krasnoselskii_mann",
                 "params": {"variant": "mean", "eta": {"kind": "constant", "eta": 0.2}}}},
     "unknown krasnoselskii_mann params: 'variant', 'eta'"),
]


@pytest.mark.parametrize("config,message", [entry[1:] for entry in CLI],
                         ids=[entry[0] for entry in CLI])
def test_cli_exit_path(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    if config is not None:
        path.write_text(json.dumps(config))
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "configuration error: " + message.format(path=path) + "\n"
    assert captured.out == "" and not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("extra, key", [
    ({"errors": {"model": "geometric", "rate": 0.5, "direction": [0.01, 0.02, 0.03]}},
     "errors.direction"),
    ({"errors": {"model": "custom", "values": [None, [0.01, 0.02, 0.03]]}}, "errors.values[1]"),
    ({"x0": [1.0, 2.0, 3.0]}, "x0"),
], ids=["geometric-direction", "custom-values", "x0"])
def test_run_and_validate_reject_an_error_vector_of_another_dimension(tmp_path, capsys, extra, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FB_CONFIG | extra))
    for command in (["run", str(path), "--out-dir", str(tmp_path)], ["validate", str(path)]):
        assert cli.main(command) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {key} must have dimension 1, got 3\n"
        assert captured.out == "" and not (tmp_path / "trace.csv").exists()
