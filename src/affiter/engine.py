"""Core iteration driver.

One step of the scheme, from the current orbit prefix ``x_0 .. x_n``:

    xbar_n  = sum_j mu_{n,j} x_j                 (affine combination)
    x_{n+1} = xbar_n + lambda_n * (T_{1,n}( ... T_{m,n} xbar_n + e_{m,n} ... )
                                   + e_{1,n} - xbar_n)

with ``lambda_n in (0, 1/phi_n]``.  One pre-pass (``_prevalidate``) checks
the whole horizon before the first operator call and returns the run's plan:
every ``lambda_n``, every stack when the layers depend on n, every
``eta_n`` of an inertial row, and the weight family's kernel for ``xbar_n``
(``schedules.orbit_mean``).  Memoryless ``xbar_n`` is ``x_n`` itself, not
a copy.  The returned trace retains the whole history for post-hoc
certificate analysis, together with the stacks and the eta_n the loop
applied.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, NumericalDivergence
from .operators import LayerStack, apply_stack
from .schedules import (
    RelaxationSchedule,
    WeightSchedule,
    chi_value,
    eta_values,
    orbit_mean,
    relaxation_at,
)
from .space import Vector, all_finite, as_vector, norm


# ---------------------------------------------------------------------------
# error models
# ---------------------------------------------------------------------------

def error_vector(e):
    """An injected error as the run uses it: None and ndarrays pass through
    unchecked, any other value (a list, a scalar) goes through ``as_vector``."""
    return e if e is None or isinstance(e, np.ndarray) else as_vector(e)


class ErrorModel:
    """Base: no errors.  Subclasses inject per-layer perturbations.

    ``errors_for(n)`` returns ``None`` or a sequence of per-layer vectors
    (``None`` entries allowed), outermost layer first; a sequence shorter
    than the stack leaves the inner layers exact.  ``layers`` is the depth
    the model reaches, checked against the stack by the run's pre-pass.
    ``budget(n, i)`` is the declared norm bound used by summability
    diagnostics (actual injected norms are recorded in the trace).
    """

    layers = 0

    def errors_for(self, n: int):
        return None

    def budget(self, n: int, i: int) -> float:
        return 0.0


class GeometricError(ErrorModel):
    """``e_{layer, n} = rate^n * direction`` on one designated layer."""

    def __init__(self, rate: float, direction, layer: int = 1):
        if not 0.0 < rate < 1.0:
            raise ConfigurationError("geometric error rate must lie in (0, 1)")
        if layer < 1:
            raise ConfigurationError("layer index is 1-based")
        self.rate = rate
        self.direction = as_vector(direction)
        self.layer = layer

    @property
    def layers(self) -> int:
        return self.layer

    def errors_for(self, n: int):
        return (None,) * (self.layer - 1) + (self.rate**n * self.direction,)

    def budget(self, n: int, i: int) -> float:
        if i != self.layer:
            return 0.0
        return self.rate**n * norm(self.direction)


class SequenceError(ErrorModel):
    """Per-layer error sequences given as callables ``n -> vector | None``.

    Returned values go through ``error_vector``.
    """

    def __init__(self, per_layer: Sequence[Callable[[int], Vector | None] | None]):
        self.per_layer = list(per_layer)

    @property
    def layers(self) -> int:
        return len(self.per_layer)

    def errors_for(self, n: int):
        out = [error_vector(fn(n)) if fn is not None else None for fn in self.per_layer]
        return out if any(e is not None for e in out) else None

    def budget(self, n: int, i: int) -> float:
        fn = self.per_layer[i - 1] if i - 1 < len(self.per_layer) else None
        if fn is None:
            return 0.0
        e = fn(n)
        if e is None:
            return 0.0
        if type(e) is np.ndarray and e.dtype == np.float64 and e.ndim == 1 and e.size:
            r = norm(e)
            if math.isfinite(r):
                return r
        # other values, and non-finite norms: as_vector coerces them or raises
        # on non-finite entries (finite entries whose squares overflow give inf)
        return norm(as_vector(e))


# ---------------------------------------------------------------------------
# configuration and trace
# ---------------------------------------------------------------------------

@dataclass
class IterationConfig:
    """Everything one run needs.

    ``stacks`` is a single LayerStack or a callable ``n -> LayerStack`` for
    iteration-dependent layers; stacks must keep a constant layer count and
    dimension.  ``synthetic_errors`` selects how the residual is measured
    when errors are injected: with synthetic errors the perturbed pass also
    carries the clean composite from the innermost perturbed layer outward
    (``apply_stack(..., clean=True)``), so the residual stays exact; genuine
    inexactness falls back to the perturbed value and the trace labels it
    approximate.
    ``stop_residual = 0`` disables the residual stop entirely (useful when a
    mean point can land on a fixed point without the orbit having settled).
    ``aux_recorder(n, xbar_n, errors_n)`` runs after each step's pass and
    its dict goes to ``trace.aux``; ``errors_n`` is what
    ``errors.errors_for(n)`` returned for that pass (None, or per-layer
    vectors outermost first), so a recorder reads the errors the step
    injected without calling the error model again.
    """

    stacks: LayerStack | Callable[[int], LayerStack]
    weights: WeightSchedule
    relaxation: RelaxationSchedule
    x0: Vector
    errors: ErrorModel = field(default_factory=ErrorModel)
    max_iters: int = 1000
    stop_residual: float = 1e-10
    reference: Vector | None = None
    synthetic_errors: bool = True
    aux_recorder: Callable[[int, Vector, Sequence | None], dict] | None = None

    def stack_at(self, n: int) -> LayerStack:
        return self.stacks(n) if callable(self.stacks) else self.stacks


@dataclass
class RunTrace:
    """Per-iteration record of a run, plus the config that produced it.

    ``points`` holds ``x_0 .. x_N`` (one more entry than there are steps);
    all step-indexed lists have length ``n_steps``.  ``stacks`` is the
    single LayerStack of the config, or the pre-pass's list of per-step
    stacks; read it through ``stack_at(n)``.  ``etas`` holds the pre-pass's
    eta_n of inertial rows (``schedules.eta_values``, one per
    ``n < max_iters``), None for the other families.  With a reference set,
    ``dist_to_ref`` holds ``norm(x_n - reference)`` for each step ``n``
    (not the final point); ``run_certificates`` reuses these values when
    it certifies against that reference.
    """

    config: IterationConfig
    stacks: LayerStack | list[LayerStack]
    etas: array | None = None
    points: list[Vector] = field(default_factory=list)
    xbars: list[Vector] = field(default_factory=list)
    lambdas: list[float] = field(default_factory=list)
    phis: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    residual_kinds: list[str] = field(default_factory=list)
    thetas: list[float] = field(default_factory=list)
    error_norms: list[tuple[float, ...]] = field(default_factory=list)
    dist_to_ref: list[float] | None = None
    aux: list[dict] | None = None
    stop_reason: str = ""
    flags: list[str] = field(default_factory=list)
    peak_orbit_points: int = 0  # orbit points the xbar_n kernel held at most

    @property
    def n_steps(self) -> int:
        return len(self.residuals)

    def stack_at(self, n: int) -> LayerStack:
        """The stack the run applied at step ``n``."""
        return self.stacks[n] if isinstance(self.stacks, list) else self.stacks

    @property
    def final_point(self) -> Vector:
        return self.points[-1]

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]

    def final_dist_to_ref(self) -> float | None:
        if self.config.reference is None:
            return None
        reference = as_vector(self.config.reference, dim=self.final_point.size)
        return norm(self.final_point - reference)

    def step_differences(self) -> np.ndarray:
        """Norms ``||x_{n+1} - x_n||`` for n = 0 .. n_steps-1."""
        return np.array(
            [norm(self.points[k + 1] - self.points[k]) for k in range(self.n_steps)]
        )


@dataclass(frozen=True)
class RunPlan:
    """What the pre-pass established for the steps ``n < max_iters``."""

    lambdas: list[float]
    stacks: list[LayerStack] | None  # None when the config holds one LayerStack
    xbar: Callable[[int, Vector], Vector]  # the weight family's kernel, fed x_n
    etas: array | None  # eta_n of inertial rows, None for the other families


def _check_error_depth(errors: ErrorModel, m: int) -> None:
    if errors.layers > m:
        raise ConfigurationError(
            f"error model perturbs layer {errors.layers}, but the stack has {m} layers"
        )


def _prevalidate(config: IterationConfig) -> RunPlan:
    """Check the whole horizon before any operator call; the run's only pre-pass.

    Calls a stack provider and the relaxation schedule once per n, checks
    that the error model reaches no layer below the stack, and raises the
    first violated bound with its n.
    """
    etas = eta_values(config.weights, config.max_iters)
    xbar = orbit_mean(config.weights, etas)
    steps = range(config.max_iters)
    if not callable(config.stacks):
        _check_error_depth(config.errors, config.stacks.m)
        phi = config.stacks.phi
        lambdas = [relaxation_at(config.relaxation, n, phi) for n in steps]
        return RunPlan(lambdas, None, xbar, etas)
    lambdas, stacks = [], []
    for n in steps:
        stack = config.stacks(n)
        if not stacks:
            _check_error_depth(config.errors, stack.m)
        elif stack.m != stacks[0].m:
            raise ConfigurationError(
                f"stack provider changed layer count at n={n} ({stack.m} != {stacks[0].m})"
            )
        stacks.append(stack)
        lambdas.append(relaxation_at(config.relaxation, n, stack.phi))
    return RunPlan(lambdas, stacks, xbar, etas)


def run(config: IterationConfig) -> RunTrace:
    """Iterate until the clean residual drops below ``stop_residual`` or
    ``max_iters`` is reached; returns the full trace.

    Every configuration error is raised by the pre-pass, before the first
    operator call; the loop then reads ``lambda_n``, the stack and
    ``xbar_n`` from the plan.  With memoryless weights ``trace.xbars[n]`` is
    ``trace.points[n]`` (the same array), and the produced iterates coincide
    bit-for-bit with the plain recursion
    ``x <- x + lambda (T_1(...T_m x + e_m ...) + e_1 - x)`` (same
    floating-point operation order).
    """
    plan = _prevalidate(config)
    x0 = as_vector(config.x0)

    stacks = config.stacks if plan.stacks is None else plan.stacks
    trace = RunTrace(config=config, stacks=stacks, etas=plan.etas)
    trace.points.append(x0)
    reference = None
    if config.reference is not None:
        reference = as_vector(config.reference, dim=x0.size)
        trace.dist_to_ref = []
    if config.aux_recorder is not None:
        trace.aux = []

    stack = config.stacks  # the one LayerStack, unless the plan has one per n
    per_step = plan.stacks
    xbar_at = plan.xbar
    errors_for = config.errors.errors_for
    synthetic = config.synthetic_errors
    stop_residual = config.stop_residual
    stop_reason = "max_iters"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for n in range(config.max_iters):
            xbar = xbar_at(n, trace.points[n])
            if per_step is not None:
                stack = per_step[n]
            lam = plan.lambdas[n]

            errors_n = errors_for(n)
            noisy = apply_stack(stack, xbar, errors_n, clean=synthetic)
            step = noisy.value - xbar
            if errors_n is None:
                residual = norm(step)
                residual_kind = "exact"
            elif synthetic:
                residual = norm(noisy.clean - xbar)
                residual_kind = "exact"
            else:
                residual = norm(step)
                residual_kind = "approximate"

            x_next = xbar + lam * step
            if not all_finite(x_next):
                raise NumericalDivergence(
                    f"iterate became non-finite at iteration {n}", iteration=n
                )

            trace.xbars.append(xbar)
            trace.lambdas.append(lam)
            trace.phis.append(stack.phi)
            trace.residuals.append(residual)
            trace.residual_kinds.append(residual_kind)
            trace.error_norms.append(noisy.error_norms)
            trace.thetas.append(lam * noisy.aggregate_error)
            if trace.dist_to_ref is not None:
                trace.dist_to_ref.append(norm(trace.points[n] - reference))
            if config.aux_recorder is not None:
                trace.aux.append(config.aux_recorder(n, xbar, errors_n))

            trace.points.append(x_next)

            if stop_residual > 0.0 and residual <= stop_residual:
                stop_reason = "residual"
                break

    trace.flags = [str(w.message) for w in caught]
    trace.stop_reason = stop_reason
    trace.peak_orbit_points = min(config.weights.support_bound or 1, len(trace.points))
    return trace


# ---------------------------------------------------------------------------
# error budget diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorBudgetReport:
    partial_sums: np.ndarray     # S_N = sum_{n<=N} chi_n lambda_n sum_i ||e_{i,n}||
    tail_increment: float        # S_N - S_{3N/4}
    flags: tuple[str, ...]

    @property
    def total(self) -> float:
        return float(self.partial_sums[-1]) if len(self.partial_sums) else 0.0


def error_budget_check(config: IterationConfig, horizon: int) -> ErrorBudgetReport:
    """Partial sums of the chi-weighted error budget over a horizon.

    Uses declared budgets, not actual injected vectors, so it runs without
    iterating; ``lambda_n`` and the stacks come from the run's pre-pass over
    ``horizon + 1`` steps, which raises the same configuration errors a run
    would.  Flags inertial weights carrying errors outside the supported
    regime (unit relaxation and a bounded-range outermost layer).  A
    ``SequenceError`` budget calls the user's error sequences again, so a
    stateful or random sequence yields a budget for errors other than the
    ones a run injected.
    """
    if horizon < 1:
        raise ConfigurationError("budget horizon must be >= 1")
    plan = _prevalidate(replace(config, max_iters=horizon + 1))
    first = config.stacks if plan.stacks is None else plan.stacks[0]
    weights = config.weights
    nonneg = weights.nonnegative
    flags: list[str] = []
    sums = np.zeros(horizon + 1)
    acc = 0.0
    any_error = False
    budget = config.errors.budget
    layers = range(1, first.m + 1)
    for n, lam in enumerate(plan.lambdas):
        chi_n = 1.0 if nonneg else chi_value(weights, n).value
        per_iter = 0
        for i in layers:
            per_iter += budget(n, i)
        if per_iter > 0.0:
            any_error = True
        acc += chi_n * lam * per_iter
        sums[n] = acc
    if any_error and not nonneg:
        all_unit_lambda = all(lam == 1.0 for lam in plan.lambdas)
        if not (all_unit_lambda and first.layers[0].bounded_range):
            flags.append(
                "unsupported-regime: errors under inertial weights are only "
                "covered with unit relaxation and a bounded-range outer layer"
            )
    tail = acc - float(sums[(3 * horizon) // 4])
    return ErrorBudgetReport(partial_sums=sums, tail_increment=tail, flags=tuple(flags))
