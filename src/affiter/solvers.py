"""Solver presets: named iteration configs with solution extractors.

Each builder checks its scalar parameter bands, wires the layer stack,
weights, relaxation, and error model into one IterationConfig, and attaches
the rule that maps a finished trace to the reported solution.  Bands that
depend on n (a callable step or xi, the relaxation caps, a custom eta) are
checked for every n < ``max_iters`` by the run's pre-pass
(``engine._prevalidate``), before the first operator call; a constant
parameter is checked once, at build, through its n = 0 value.  One check
over the horizon stays in a builder, because it selects the regime a
configuration runs in: the inertial fixed-point band, which couples lambda_n
and eta_n.  Inertial forward-backward with errors needs unit relaxation; a
callable lambda is wrapped so that the pre-pass rejects the first
lambda_n != 1.

Every builder takes ``errors``, an ``ErrorModel`` that perturbs the stack's
layers as given (outermost first), and applies its error rules to it as to
its own error sequences; ``affiter run`` passes the config's model this way.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .certificates import InertialBandParams, inertial_band_validate
from .engine import ErrorModel, IterationConfig, RunTrace, SequenceError, error_vector, run
from .errors import ConfigurationError, InvalidScheduleError, is_integer
from .operators import (
    AveragedOperator,
    LayerStack,
    MonotoneMap,
    compose,
    gradient_step,
    reflector_operator,
    relaxed,
    resolvent_operator,
    subgradient_projector,
)
from .schedules import (
    EtaSchedule,
    RelaxationSchedule,
    WeightSchedule,
    inertial,
    memoryless,
    window,
)
from .space import Vector, as_vector


@dataclass
class SolverPreset:
    name: str
    config: IterationConfig
    extract: Callable[[RunTrace], Vector]

    def solve(self) -> tuple[Vector, RunTrace]:
        trace = run(self.config)
        return self.extract(trace), trace


def _seq(sequence) -> Callable[[int], Vector | None] | None:
    """Normalize an error sequence argument: None, callable, or list.

    A callable is handed on as it is: ``SequenceError`` coerces its values
    once, through ``engine.error_vector``, and a layer that scales a value
    coerces it first.  A list becomes a lookup of coerced vectors.
    """
    if sequence is None or callable(sequence):
        return sequence
    vectors = [None if e is None else as_vector(e) for e in sequence]

    def fn(n: int):
        return vectors[n] if n < len(vectors) else None

    return fn


def _error_model(errors: ErrorModel | None, per_layer: list) -> ErrorModel:
    """``errors`` as given, or a SequenceError over the per-layer sequences
    (callables or None, outermost first) when one is given, or no errors."""
    given = any(fn is not None for fn in per_layer)
    if errors is None:
        return SequenceError(per_layer) if given else ErrorModel()
    if given:
        raise ConfigurationError("give an error model or error sequences, not both")
    return errors


def _tabulated(values: list[float], fn: Callable[[int], float]) -> Callable[[int], float]:
    """``fn``, read from ``values[n]`` where the list covers ``n``."""
    return lambda n: values[n] if n < len(values) else fn(n)


def _weights(weights, default: WeightSchedule, own: str | None = None) -> WeightSchedule:
    """``weights``, or the preset's ``default`` for None; with ``own``, the
    variant of that name builds its rows as ``default`` and rejects any other."""
    if weights is None:
        return default
    if not isinstance(weights, WeightSchedule):
        raise InvalidScheduleError(
            f"weights must be a WeightSchedule, got {type(weights).__name__}"
        )
    if own is not None and weights != default:
        raise ConfigurationError(
            f"the {own} variant builds its own weights; {weights.describe()} rejected"
        )
    return weights


def _gamma_fn(gamma) -> Callable[[int], float]:
    if callable(gamma):
        return gamma
    g = float(gamma)
    return lambda n: g


# ---------------------------------------------------------------------------
# mean-value Peaceman-Rachford
# ---------------------------------------------------------------------------

def peaceman_rachford(
    A: MonotoneMap,
    B: MonotoneMap,
    gamma: float,
    weights: WeightSchedule | None,
    x0,
    a_errors=None,
    b_errors=None,
    max_iters: int = 200,
    stop_residual: float = 1e-10,
    reference: Vector | None = None,
    errors: ErrorModel | None = None,
) -> SolverPreset:
    """Mean-value Peaceman-Rachford iteration for ``0 in A y + B y``.

        y_n     = J_{gamma B} xbar_n + b_n
        z_n     = J_{gamma A} (2 y_n - xbar_n) + a_n
        x_{n+1} = xbar_n + 2 (z_n - y_n)

    The unrelaxed reflected composition ``R_{gamma A} R_{gamma B}`` does not
    converge by itself in general; averaging over the orbit restores
    convergence, which is why the weight family must be nonnegative with
    ``inf_n mu_{n+1,n} mu_{n+1,n+1} > 0`` (window w >= 2 qualifies; cesaro
    and memoryless do not; None runs window(2)).  This is the engine's
    two-layer case with unit relaxation: ``T_1 = R_{gamma A}``, ``T_2 =
    R_{gamma B}`` (both nonexpansive, so phi = 1), and per-layer errors
    ``e_1 = 2 a_n`` and ``e_2 = 2 b_n``, so ``theta_n = 2 (||a_n|| +
    ||b_n||)``.  The trace records the three-line quantities y_n, z_n as two
    packed float64 columns, read as ``trace.aux[n]["y"]`` and
    ``trace.aux[n]["z"]``; the reported solution is the last y_n, a view
    into its column (so ``max_iters`` 0 is rejected), and the orbit
    converges to ``x* = y* + gamma B y*``.

    The two reflectors' resolvents keep the value they last computed, and the
    recorder reads y_n and z_n from the step's own pass instead of calling
    the resolvents again: y_n from ``J_{gamma B} xbar_n``, and z_n from the
    perturbed chain's ``J_{gamma A} u_n`` with ``u_n = R_{gamma B} xbar_n +
    2 b_n`` (``apply_stack`` evaluates the clean chain of a shared layer
    first).  ``u_n`` is ``2 y_n - xbar_n`` in exact arithmetic; in floating
    point z_n can differ from that form by rounding when b_n is given.  The
    recorder takes a_n and b_n as half the layer errors the step injected
    (halving ``2 b_n`` is exact), so a model given as ``errors`` (or set on
    the config) gives y_n, z_n with ``x_{n+1} = xbar_n + 2 (z_n - y_n)`` too.
    The resolvent values are kept per thread, where a run makes all its
    layer and recorder calls, so runs of one preset in two threads each
    record their own y_n and z_n.
    """
    if not gamma > 0:
        raise ConfigurationError("gamma must be positive")
    if is_integer(max_iters) and max_iters == 0:
        raise ConfigurationError(
            "peaceman_rachford needs max_iters >= 1: its solution is the y_n of a step"
        )
    weights = _weights(weights, window(2))
    if not weights.nonnegative or weights.mann_product_bound() <= 0.0:
        raise ConfigurationError(
            f"weights {weights.describe()} rejected: the mean-value iteration needs "
            "a nonnegative family with inf mu_{n+1,n} mu_{n+1,n+1} > 0 (window w >= 2)"
        )
    a_fn, b_fn = _seq(a_errors), _seq(b_errors)

    def doubled(fn):
        # the layer error 2 e_n of a sequence e_n; an absent sequence stays absent
        return None if fn is None else (
            lambda n: None if (e := error_vector(fn(n))) is None else e + e
        )

    # J_{gamma A} as .a and J_{gamma B} as .b, as this thread's layers last returned them
    resolvents = threading.local()

    def reflector(key: str, mono: MonotoneMap) -> AveragedOperator:
        # R_{gamma mono} over a resolvent that keeps its value for record
        def resolvent(g, x):
            j = mono.resolvent(g, x)
            setattr(resolvents, key, j)
            return j

        return reflector_operator(gamma, MonotoneMap(name=mono.name, resolvent=resolvent))

    def record(n, xbar, errors_n):
        # the step's pass has just evaluated J_{gamma B} at xbar_n and, last,
        # J_{gamma A} on the perturbed chain; errors_n is (2 a_n, 2 b_n), or shorter
        e_a, e_b = (None, None) if errors_n is None else (*errors_n, None, None)[:2]
        ja, jb = resolvents.a, resolvents.b
        return {"y": jb if e_b is None else jb + 0.5 * e_b,
                "z": ja if e_a is None else ja + 0.5 * e_a}

    config = IterationConfig(
        stacks=compose([reflector("a", A), reflector("b", B)]),
        weights=weights,
        relaxation=RelaxationSchedule(policy="constant", value=1.0),
        x0=as_vector(x0),
        errors=_error_model(errors, [doubled(a_fn), doubled(b_fn)]),
        max_iters=max_iters,
        stop_residual=stop_residual,
        reference=reference,
        aux_recorder=record,
    )
    return SolverPreset(
        name="peaceman_rachford",
        config=config,
        extract=lambda trace: trace.aux[-1]["y"],
    )


# ---------------------------------------------------------------------------
# forward-backward family
# ---------------------------------------------------------------------------

def forward_backward(
    A: MonotoneMap,
    B: Callable[[Vector], Vector] | None,
    beta: float | None,
    gamma,
    x0,
    epsilon: float = 0.1,
    lam: float | Callable[[int], float] | None = 1.0,
    weights: WeightSchedule | None = None,
    variant: str = "memoryless",
    eta: EtaSchedule | None = None,
    a_errors=None,
    b_errors=None,
    max_iters: int = 500,
    stop_residual: float = 1e-10,
    reference: Vector | None = None,
    errors: ErrorModel | None = None,
) -> SolverPreset:
    """Relaxed forward-backward splitting for ``0 in A x + B x``.

    The two-layer stack is ``T_{1,n} = J_{gamma_n A}`` (alpha 1/2) and
    ``T_{2,n} = Id - gamma_n B`` (alpha ``gamma_n / (2 beta)``), with
    per-layer errors ``a_n`` and ``-gamma_n b_n`` and composite constant
    ``phi_n = 2 / (4 - gamma_n / beta)``.  Steps must satisfy ``gamma_n in
    [eps, 2 beta / (1 + eps)]`` and relaxations ``lambda_n in [eps,
    1 + (1 - eps)(1 - gamma_n / (2 beta))]``.

    Variants: ``memoryless``, ``mean`` (an explicit nonnegative weight
    family), ``inertial`` (two-term extrapolation row built from ``eta``),
    and ``proximal_point`` (``B = 0``: the backward layer alone with
    ``phi = 1/2`` and ``gamma_n in [eps, inf)``).  ``weights=None`` runs
    memoryless; the inertial variant rejects any schedule but its own row.

    Runs with signed weights (inertial rows whose eta kind is not
    ``zero``), whatever the variant, accept errors (sequences or a model)
    only in the unit-relaxation bounded-domain regime; anything else is
    rejected.
    The forward error ``-gamma_n b_n`` reads gamma_n as the run's pre-pass
    read it, kept per thread (by thread id), so runs of one preset in two
    threads each scale b_n by their own gamma_n.
    """
    if variant not in ("memoryless", "mean", "inertial", "proximal_point"):
        raise ConfigurationError(f"unknown forward-backward variant {variant!r}")
    proximal_point = variant == "proximal_point" or B is None
    if proximal_point:
        B, beta = None, None
        if b_errors is not None:
            raise ConfigurationError(
                "the proximal-point variant has no forward layer to perturb"
            )
        if not 0.0 < epsilon < 0.5:
            raise ConfigurationError("epsilon must lie in (0, 1/2)")
    else:
        if beta is None or not beta > 0:
            raise ConfigurationError("cocoercivity constant beta must be positive")
        if not 0.0 < epsilon < min(0.5, beta):
            raise ConfigurationError(
                f"epsilon must lie in (0, min(1/2, beta)) = (0, {min(0.5, beta)})"
            )
    gamma_fn = _gamma_fn(gamma)
    gamma_hi = None if proximal_point else 2.0 * beta / (1.0 + epsilon)
    # gamma_n as each thread's pre-pass read it, by thread id; a threading.local
    # per preset would slow every build (its first instance after a gc is costly)
    checked: dict[int, dict[int, float]] = {}

    def checked_gamma(n: int) -> float:
        g = gamma_fn(n)
        if not g >= epsilon or (gamma_hi is not None and not g <= gamma_hi + 1e-12):
            hi = "inf" if gamma_hi is None else f"{gamma_hi}"
            raise ConfigurationError(
                f"gamma_{n} = {g} outside the admissible band [{epsilon}, {hi}]"
            )
        checked.setdefault(threading.get_ident(), {})[n] = g
        return g

    checked_gamma(0)

    if variant == "inertial":
        if eta is None:
            raise ConfigurationError("inertial variant needs an eta schedule")
        weights = _weights(weights, inertial(eta), variant)
    else:
        weights = _weights(weights, memoryless())
    if variant == "mean" and not weights.nonnegative:
        raise ConfigurationError("mean variant needs a nonnegative weight family")
    if not weights.nonnegative and (
        errors is not None or a_errors is not None or b_errors is not None
    ):
        rejected = (
            "errors under inertial weights need unit relaxation and a "
            "bounded-domain backward operator; rejected"
        )
        # lam=None runs at the fb-band cap, which always exceeds 1
        if lam is None or not A.bounded_domain or (not callable(lam) and float(lam) != 1.0):
            raise ConfigurationError(rejected)
        if callable(lam):
            lam_fn = lam

            def unit_lam(n: int) -> float:
                # read by the run's pre-pass once per n, before any operator call
                value = float(lam_fn(n))
                if value != 1.0:
                    raise ConfigurationError(rejected)
                return value

            lam = unit_lam

    a_fn, b_fn = _seq(a_errors), _seq(b_errors)

    def stack_for(n: int) -> LayerStack:
        g = checked_gamma(n)
        layers = [resolvent_operator(g, A)]
        if not proximal_point:
            layers.append(gradient_step(g, B, beta))
        return compose(layers)

    def forward_error(n: int) -> Vector | None:
        b_n = error_vector(b_fn(n))
        if b_n is None:
            return None
        gammas = checked.get(threading.get_ident(), {})
        return -(gammas[n] if n in gammas else gamma_fn(n)) * b_n

    errors = _error_model(errors, [a_fn] if b_fn is None else [a_fn, forward_error])

    config = IterationConfig(
        stacks=stack_for if callable(gamma) else stack_for(0),
        weights=weights,
        relaxation=RelaxationSchedule(policy="fb_band", value=lam, epsilon=epsilon),
        x0=as_vector(x0),
        errors=errors,
        max_iters=max_iters,
        stop_residual=stop_residual,
        reference=reference,
    )
    return SolverPreset(
        name=f"forward_backward[{variant}]",
        config=config,
        extract=lambda trace: trace.final_point,
    )


# ---------------------------------------------------------------------------
# Polyak subgradient projection
# ---------------------------------------------------------------------------

def polyak_subgradient(
    f: Callable[[Vector], float],
    s: Callable[[Vector], Vector],
    theta: float,
    region_projector: AveragedOperator,
    x0,
    xi: float | Callable[[int], float] = 1.0,
    lam: float = 1.0,
    eta_low: float = 0.5,
    epsilon: float = 0.05,
    weights: WeightSchedule | None = None,
    max_iters: int = 500,
    stop_residual: float = 1e-10,
    reference: Vector | None = None,
    errors: ErrorModel | None = None,
) -> SolverPreset:
    """Level-set subgradient projection for ``min f over C`` with known
    optimal value ``theta``.

    Stack: ``T_1 = P_C`` and ``T_2 = Id + xi_n (G - Id)`` where ``G`` is the
    subgradient projector onto ``{f <= theta}`` (quasinonexpansive last
    layer, so a common fixed point across layers is assumed: the problem must
    be consistent).  Bands: ``eta_low in (0, 1)``, ``eps in (0, eta_low /
    (2 + eta_low))``, ``xi_n in [eta_low, 2 - eta_low]``, ``lambda_n in
    [eps, (1 - eps)(2 - xi_n / 2)]``.  The start is projected into C.
    """
    if not 0.0 < eta_low < 1.0:
        raise ConfigurationError("eta_low must lie in (0, 1)")
    eps_cap = eta_low / (2.0 + eta_low)
    if not 0.0 < epsilon < eps_cap:
        raise ConfigurationError(
            f"epsilon must lie in (0, eta/(2+eta)) = (0, {eps_cap}), got {epsilon}"
        )
    weights = _weights(weights, memoryless())
    if not weights.nonnegative:
        raise ConfigurationError("subgradient projection needs nonnegative weights")
    xi_fn = _gamma_fn(xi)
    g_op = subgradient_projector(f, s, theta)

    def stack_for(n: int) -> LayerStack:
        x = xi_fn(n)
        if not eta_low <= x <= 2.0 - eta_low:
            raise ConfigurationError(
                f"xi_{n} = {x} outside [eta, 2-eta] = [{eta_low}, {2.0 - eta_low}]"
            )
        cap = (1.0 - epsilon) * (2.0 - x / 2.0)
        if not epsilon <= lam <= cap:
            raise ConfigurationError(
                f"lambda = {lam} outside [eps, (1-eps)(2 - xi/2)] = [{epsilon}, {cap}] at n={n}"
            )
        return compose([region_projector, relaxed(g_op, x)])

    config = IterationConfig(
        stacks=stack_for if callable(xi) else stack_for(0),
        weights=weights,
        relaxation=RelaxationSchedule(policy="constant", value=lam),
        x0=region_projector.fn(as_vector(x0)),
        errors=_error_model(errors, []),
        max_iters=max_iters,
        stop_residual=stop_residual,
        reference=reference,
    )
    return SolverPreset(
        name="polyak_subgradient",
        config=config,
        extract=lambda trace: trace.final_point,
    )


# ---------------------------------------------------------------------------
# Krasnoselskii-Mann variants
# ---------------------------------------------------------------------------

def krasnoselskii_mann(
    T: AveragedOperator,
    x0,
    variant: str = "mean",
    weights: WeightSchedule | None = None,
    errors=None,
    eta: EtaSchedule | None = None,
    lam: float | Callable[[int], float] = 1.0,
    sigma: float = 0.2,
    theta_tune: float = 2.0 / 3.0,
    max_iters: int = 200,
    stop_residual: float = 1e-10,
    reference: Vector | None = None,
) -> SolverPreset:
    """Fixed-point iteration of a single quasinonexpansive operator.

    ``memoryless``: the plain relaxed baseline ``x <- x + lam (Tx - x)``
    (which can fail to converge; it exists as the comparison point for the
    averaged variants).  ``mean``: applies ``T`` to a nonnegative average of
    the orbit with unit relaxation (any other ``lam`` is rejected) and
    summable errors; the weight family needs ``inf_n mu_{n+1,n}
    mu_{n+1,n+1} > 0`` (window w >= 2).
    ``inertial``: two-term extrapolation, error-free, with the (eta, sigma,
    theta_tune) relaxation band validated on the supplied sequences
    (phi == 1 here).  ``errors`` is a sequence for ``T`` (a list or a
    callable), or an ``ErrorModel`` used as given.  ``weights=None`` runs
    window(2) under ``mean``; the other variants build their own rows and
    reject any other schedule.
    """
    stack = compose([replace(T, alpha=1.0, name=T.name or "fixed_point_map")])
    x0 = as_vector(x0)
    if variant == "memoryless":
        weights = _weights(weights, memoryless(), variant)
    elif variant == "mean":
        weights = _weights(weights, window(2))
        if not weights.nonnegative or weights.mann_product_bound() <= 0.0:
            raise ConfigurationError(
                "mean variant needs a nonnegative family with "
                "inf mu_{n+1,n} mu_{n+1,n+1} > 0 (window w >= 2)"
            )
        if callable(lam) or lam != 1.0:
            raise ConfigurationError("the mean variant runs at unit relaxation; lam must be 1.0")
    elif variant == "inertial":
        if eta is None:
            raise ConfigurationError("inertial variant needs an eta schedule")
        if errors is not None:
            raise ConfigurationError("the inertial variant is error-free; rejected")
        if eta.sup() >= 1.0:
            raise ConfigurationError(
                "the inertial fixed-point variant needs sup eta < 1"
            )
        _weights(weights, inertial(eta), variant)  # the row is built below, from eta as tabulated
        # lambda_n and eta_n over the band's horizon, computed once: the
        # config reads them back from these lists, so the run's pre-pass
        # does not call a user callable a second time
        lam_fn = _gamma_fn(lam)
        horizon = max_iters + 2
        lambdas = [lam_fn(n) for n in range(horizon)]
        etas = [eta.value(n) for n in range(horizon)]
        params = InertialBandParams(eta=eta.sup(), sigma=sigma, theta_tune=theta_tune)
        report = inertial_band_validate(
            params, phi_seq=np.ones(horizon), lambda_seq=lambdas, eta_seq=etas
        )
        if not report.ok:
            raise ConfigurationError(
                f"inertial band violated ({report.violated}) at n={report.first_violation}"
            )
        if callable(lam):
            lam = _tabulated(lambdas, lam)
        if eta.kind == "custom":
            eta = replace(eta, fn=_tabulated(etas, eta.fn))
        weights = inertial(eta)
    else:
        raise ConfigurationError(f"unknown fixed-point variant {variant!r}")
    if not isinstance(errors, ErrorModel):
        errors = _error_model(None, [_seq(errors)])
    config = IterationConfig(
        stacks=stack,
        weights=weights,
        relaxation=RelaxationSchedule(policy="constant", value=lam),
        x0=x0,
        errors=errors,
        max_iters=max_iters,
        stop_residual=stop_residual,
        reference=reference,
    )
    return SolverPreset(
        name=f"krasnoselskii_mann[{variant}]",
        config=config,
        extract=lambda trace: trace.final_point,
    )
