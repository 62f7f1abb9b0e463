"""Core iteration driver.

One step of the scheme, from the current orbit prefix ``x_0 .. x_n``:

    xbar_n  = sum_j mu_{n,j} x_j                 (affine combination)
    x_{n+1} = xbar_n + lambda_n * (T_{1,n}( ... T_{m,n} xbar_n + e_{m,n} ... )
                                   + e_{1,n} - xbar_n)

with ``lambda_n in (0, 1/phi_n]``.  One pre-pass (``_prevalidate``) checks
the whole horizon before the first operator call and returns the run's plan:
``lambda_n`` (one float when every n shares it), every stack when the layers
depend on n, and every ``eta_n`` of an inertial row.  The weight family's
step kernel (``schedules.orbit_mean``) forms ``xbar_n``; memoryless
``xbar_n`` is ``x_n`` itself, not a copy.  A step with ``lambda_n == 1`` forms
``xbar_n + step`` with no multiply (``1.0 * v`` is ``v`` bit for bit).  The
errors ``e_{i,n}`` have one source, the error model's ``errors_for(n)``:
the step injects them, the residual ``||T_n xbar_n - xbar_n||`` is always
the clean chain's of the same pass, and ``error_budget_check`` sums the
norms of the same vectors.
A step without errors calls the layers' ``fn``s itself and pays only for
them and the affine combination: its finite residual proves ``x_{n+1}``
finite whenever ``lambda_n r_n < 2^968`` (``FINITE_ADDEND`` holds the
proof), and only the other steps test the entries of ``x_{n+1}``.  No
kernel tests ``xbar_n``, so the layers may see one non-finite ``xbar_n``
before the run raises at that n.  The update never reads x*: the run only
checks a reference before the loop, and ``||x_n - x*||`` is measured where
it is read (``RunTrace.dist_to_ref``, the certificates).  The returned trace
retains the orbit for post-hoc certificate analysis, with the run's plan
(``RunPlan``, what the loop applied): the orbit and each recorder value as
packed float64 rows (``space.Rows``), each per-step scalar that is not
derived as an ``array("d")`` column, and the per-layer error norms as one
float64 array.  It keeps one copy of each fact: ``xbar_n`` is formed again
from the orbit where it is read (``RunTrace.xbars``, ``xbar_blocks``), by
the block form of the step kernel (``schedules.orbit_mean_blocks``), bit for
bit; a ``lambda_n`` shared by every step is one float, and an error-free
run keeps no theta_n.  A step leaves no Python object behind in the trace.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, NumericalDivergence, check_integer, is_integer
from .operators import LayerStack, apply_stack
from .schedules import (
    RelaxationSchedule,
    WeightSchedule,
    chi_value,
    eta_values,
    orbit_mean,
    orbit_mean_blocks,
    relaxation_at,
)
from .space import Rows, Vector, all_finite, as_vector, check_same_dim, norm


# ---------------------------------------------------------------------------
# error models
# ---------------------------------------------------------------------------

_FLOAT64 = np.dtype(np.float64)


def error_vector(e):
    """An injected error as the run uses it, coerced once: None and 1-D
    float64 ndarrays pass through unchecked; any other value (a list, a
    scalar, a float32 or 2-D array) goes through ``as_vector``, which reads
    it as float64 and rejects non-finite entries.  So ``apply_stack`` and
    ``error_budget_check`` measure every error in float64."""
    if e is None or (isinstance(e, np.ndarray) and e.dtype == _FLOAT64 and e.ndim == 1):
        return e
    return as_vector(e)


class ErrorModel:
    """Base: no errors.  Subclasses inject per-layer perturbations.

    ``errors_for(n)`` is all a model defines: it returns ``None`` or a
    sequence of per-layer vectors (``None`` entries allowed), outermost
    layer first; a sequence shorter than the stack leaves the inner layers
    exact.  ``layers`` is the depth the model reaches, checked against the
    stack by the run's pre-pass.  The run and ``error_budget_check`` both
    read the errors from ``errors_for``, once per n each.
    """

    layers = 0

    def errors_for(self, n: int):
        return None


class GeometricError(ErrorModel):
    """``e_{layer, n} = rate^n * direction`` on one designated layer."""

    def __init__(self, rate: float, direction, layer: int = 1):
        if not 0.0 < rate < 1.0:
            raise ConfigurationError("geometric error rate must lie in (0, 1)")
        check_integer(layer, "layer index")
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
        for e in out:
            if e is not None:
                return out
        return None


# ---------------------------------------------------------------------------
# configuration and trace
# ---------------------------------------------------------------------------

@dataclass
class IterationConfig:
    """Everything one run needs.

    ``stacks`` is a single LayerStack or a callable ``n -> LayerStack`` for
    iteration-dependent layers; stacks must keep a constant layer count and
    dimension.  ``errors`` perturbs each step's stack pass; the residual is
    always the clean one, ``||T_n xbar_n - xbar_n||``, which the perturbed
    pass carries along (``StackApplication.clean``).
    ``stop_residual = 0`` disables the residual stop entirely (useful when a
    mean point can land on a fixed point without the orbit having settled);
    a negative or NaN value is rejected by the pre-pass.
    ``aux_recorder(n, xbar_n, errors_n)`` runs after each step's pass and
    returns a mapping whose values are vectors of the run's dimension;
    ``errors_n`` is what ``errors.errors_for(n)`` returned for that pass
    (None, or per-layer vectors outermost first), so a recorder reads the
    errors the step injected without calling the error model again.  The
    keys of the first record fix the columns of ``trace.aux``: the run
    copies each value into the packed rows of its key, and a later record
    with other keys, or a value of another shape (a scalar too, which is
    not broadcast), raises ``ConfigurationError`` naming the key and n.
    As with ``space.Rows``, a row of ``BLOCK_FLOATS`` floats or more is
    kept as the array the recorder returned, not copied.
    """

    stacks: LayerStack | Callable[[int], LayerStack]
    weights: WeightSchedule
    relaxation: RelaxationSchedule
    x0: Vector
    errors: ErrorModel = field(default_factory=ErrorModel)
    max_iters: int = 1000
    stop_residual: float = 1e-10
    reference: Vector | None = None
    aux_recorder: Callable[[int, Vector, Sequence | None], Mapping[str, Vector]] | None = None

    def stack_at(self, n: int) -> LayerStack:
        return self.stacks(n) if callable(self.stacks) else self.stacks


class AuxRecords(Sequence):
    """``trace.aux``: one mapping ``{key: 1-D view}`` per step, read from
    the packed rows (``space.Rows``) of each recorder key.

    ``aux[n]`` (negative ``n`` too) builds the step's mapping, a slice
    gives a list of them, and iteration, ``len`` and ``reversed`` work as on
    any sequence.
    """

    __slots__ = ("_columns", "_n_steps")

    def __init__(self, columns: dict[str, Rows], n_steps: int):
        self._columns = columns
        self._n_steps = n_steps

    def __len__(self) -> int:
        return self._n_steps

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(self._n_steps))]
        k = i + self._n_steps if i < 0 else i
        if not 0 <= k < self._n_steps:
            raise IndexError(f"aux record {i} of {self._n_steps}")
        return {key: rows[k] for key, rows in self._columns.items()}


def _aux_value(key, n: int, value, dim: int) -> Vector:
    """A recorder value of another type or shape than a float vector of
    dimension ``dim``, read as one, or a ConfigurationError naming it."""
    try:
        v = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        v = None
    if v is None or v.shape != (dim,):
        got = f"shape {v.shape}" if v is not None else type(value).__name__
        raise ConfigurationError(
            f"aux_recorder value {key!r} at n={n} must be a vector of dimension {dim}, "
            f"got {got}"
        )
    return v


@dataclass(frozen=True, slots=True)
class RunPlan:
    """What the pre-pass established for the steps ``n < max_iters``: what a
    run applies, and what its trace reads.  ``lambdas`` is one float when
    every n shares it (one stack, and a relaxation that does not depend on
    n), else an ``array("d")``; ``stacks`` the config's LayerStack, or the
    provider's stack of each n; ``etas`` the eta_n of inertial rows, else
    None; ``reference`` the checked x* (a float64 vector), or None."""

    lambdas: array | float
    stacks: LayerStack | list[LayerStack]
    etas: array | None
    weights: WeightSchedule
    reference: Vector | None

    def stack_at(self, n: int) -> LayerStack:
        """The stack of step ``n``."""
        return self.stacks[n] if isinstance(self.stacks, list) else self.stacks

    def stacks_applied(self, steps: int) -> list[tuple[int, LayerStack]]:
        """``(n, stack)`` for each of the first ``steps`` n whose stack is
        not step ``n - 1``'s object; ``[(0, stack)]`` for a single LayerStack."""
        stacks = self.stacks[:steps] if isinstance(self.stacks, list) else [self.stacks]
        return [(n, s) for n, s in enumerate(stacks) if n == 0 or s is not stacks[n - 1]]

    def lambda_column(self, steps: int) -> array:
        """``lambda_0 .. lambda_{steps-1}`` as an ``array("d")``: a new column
        repeating one float, or the first ``steps`` entries of the column
        (the column itself when it has no more)."""
        if isinstance(self.lambdas, float):
            return array("d", [self.lambdas]) * steps
        return self.lambdas if len(self.lambdas) == steps else self.lambdas[:steps]

    def phi_column(self, steps: int) -> array:
        """``phi_n`` of the stacks of the first ``steps`` n, as a new ``array("d")``."""
        if isinstance(self.stacks, list):
            return array("d", [s.phi for s in self.stacks[:steps]])
        return array("d", [self.stacks.phi]) * steps


@dataclass
class RunTrace:
    """Per-iteration record of a run, plus the config that produced it.

    The trace keeps the orbit and derives the rest where it is read, from it
    and from ``plan``: the pre-pass's ``RunPlan`` (its lambda_n column cut to
    ``n_steps``), so it reads what the run applied, not ``config``.
    ``points`` holds ``x_0 .. x_N`` (one more row than there are steps) as a
    ``space.Rows`` of packed float64 rows; ``points[n]`` is a 1-D view into
    its block.  ``xbars`` holds ``xbar_0 .. xbar_{N-1}``: no run stores them,
    and each read forms them anew from ``points`` and the plan
    (``xbar_blocks``, O(N d) work), so bind it once (``xbars =
    trace.xbars``) before reading it per step.  With memoryless weights
    (rows of one point) it is ``points``' first ``n_steps`` rows, the same
    memory.  ``residuals`` is an ``array("d")`` column of length ``n_steps``,
    and so are ``lambdas``, ``thetas``, ``phis`` and ``dist_to_ref``, which
    are built on read where the run keeps less than a column:
    ``kept_thetas`` is None for a run whose model is the base ``ErrorModel``,
    whose ``thetas`` are the zeros ``lambda_n * 0.0`` gives.  ``error_norms``
    is an ``(n_steps, m)`` float64 array of the per-layer norms
    ``||e_{i,n}||``, outermost layer first; such an error-free run keeps no
    per-step norm either: its ``error_norms`` is an ndarray of ``n_steps``
    rows over one zero row in a ``bytes`` buffer, so read-only (``m`` is 0
    for a zero-step run whose stacks come from a provider, as no stack was
    built).  ``aux`` is None without a recorder, else an ``AuxRecords``: one
    mapping of 1-D views into the recorder's packed columns per step.
    ``flags`` holds the numpy floating-point events of the loop in the run's
    thread, as numpy words them; other warnings reach the caller (see ``run``).
    """

    config: IterationConfig
    plan: RunPlan
    points: Rows
    residuals: array
    kept_thetas: array | None
    error_norms: np.ndarray
    aux: AuxRecords | None = None
    stop_reason: str = ""
    flags: list[str] = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        return len(self.residuals)

    @property
    def peak_orbit_points(self) -> int:
        """Orbit points the ``xbar_n`` step kernel held at most."""
        return min(self.plan.weights.support_bound or 1, len(self.points))

    def stack_at(self, n: int) -> LayerStack:
        """The stack the run applied at step ``n``."""
        return self.plan.stack_at(n)

    def xbar_blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """``(start, rows)`` with ``rows[i] = xbar_{start + i}``, one packed
        block of ``points`` at a time (``schedules.orbit_mean_blocks``), bit
        for bit the points the run fed to the stack: the rows follow the
        plan's weights and eta_n."""
        return orbit_mean_blocks(
            self.plan.weights, self.plan.etas, self.points.blocks(self.n_steps))

    @property
    def xbars(self) -> Rows:
        """``xbar_0 .. xbar_{N-1}`` as a ``space.Rows``, formed anew on each
        read (``xbar_blocks``): bind it once before reading it per step."""
        return Rows.of_blocks(self.points.dim, self.xbar_blocks())

    @property
    def lambdas(self) -> array:
        """``lambda_n`` of each step, as an ``array("d")``; built on each read
        when every step shares one value."""
        return self.plan.lambda_column(self.n_steps)

    @property
    def thetas(self) -> array:
        """``theta_n = lambda_n sum_i ||e_{i,n}||`` of each step, as an
        ``array("d")``; built on each read (zeros) for an error-free run."""
        if self.kept_thetas is None:
            return array("d", [0.0]) * self.n_steps  # lambda_n * 0.0 for lambda_n > 0
        return self.kept_thetas

    @property
    def phis(self) -> array:
        """``phi_n`` of the stack applied at each step, as an ``array("d")``.

        Each read builds a new array of ``n_steps`` entries: bind it once
        (``phis = trace.phis``) before reading it per step."""
        return self.plan.phi_column(self.n_steps)

    @property
    def dist_to_ref(self) -> array | None:
        """``norm(x_n - x*)`` for each step ``n`` (not the final point), as an
        ``array("d")``, None without a reference.

        Each read measures the orbit (``space.Rows.distances``): bind it once
        before reading it per step.  ``x*`` is the plan's reference, the one
        the run checked, as in ``final_dist_to_ref()``.  A distance that
        overflows reads inf, with no numpy warning."""
        if self.plan.reference is None:
            return None
        dists = array("d", [0.0]) * self.n_steps
        with np.errstate(over="ignore", invalid="ignore"):
            # a view, as np.frombuffer but lighter
            self.points.distances(self.plan.reference, np.ndarray(self.n_steps, np.float64, dists))
        return dists

    @property
    def final_point(self) -> Vector:
        return self.points[-1]

    @property
    def final_residual(self) -> float | None:
        """``r_{N-1}``, None for a run of no steps."""
        return self.residuals[-1] if self.residuals else None

    def final_dist_to_ref(self) -> float | None:
        if self.plan.reference is None:
            return None
        return norm(self.final_point - self.plan.reference)

    def step_differences(self) -> np.ndarray:
        """Norms ``||x_{n+1} - x_n||`` for n = 0 .. n_steps-1."""
        return np.array(
            [norm(self.points[k + 1] - self.points[k]) for k in range(self.n_steps)]
        )


def _check_error_depth(errors: ErrorModel, m: int) -> None:
    if errors.layers > m:
        raise ConfigurationError(
            f"error model perturbs layer {errors.layers}, but the stack has {m} layers"
        )


def _prevalidate(config: IterationConfig, steps: int | None = None) -> RunPlan:
    """Check the whole horizon, the first ``steps`` n (``config.max_iters``
    when None), before any operator call; the run's only pre-pass.

    Calls a stack provider and the relaxation schedule once per n (the
    schedule only once, at n = 0, when neither its value nor the stack
    depends on n), checks that the error model reaches no layer below the
    stack, that ``stop_residual`` is not negative or NaN, that a reference
    is a finite point of ``x0``'s dimension and that a ``GeometricError``'s
    direction has that dimension, and raises the
    first violated bound with its n.  Without ``steps``, ``max_iters`` must be
    an integer >= 0 that ``operator.index`` accepts and not a bool; 0 is a
    run of no steps.
    """
    if steps is None:
        steps = config.max_iters
        if not (is_integer(steps) and operator.index(steps) >= 0):
            raise ConfigurationError(f"max_iters must be an integer >= 0, got {steps!r}")
    if not config.stop_residual >= 0.0:
        raise ConfigurationError(
            f"stop_residual must be >= 0 (0 disables the stop), got {config.stop_residual}"
        )
    steps = range(steps)
    etas = eta_values(config.weights, len(steps))
    if not callable(config.stacks):
        _check_error_depth(config.errors, config.stacks.m)
        stacks, phi = config.stacks, config.stacks.phi
        if callable(config.relaxation.value):
            lambdas = array("d", [relaxation_at(config.relaxation, n, phi) for n in steps])
        elif steps:
            # one float at every n, so a bound it fails at any n it fails at n = 0
            lambdas = relaxation_at(config.relaxation, 0, phi)
        else:
            lambdas = array("d")
    else:
        lambdas, stacks = array("d"), []
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
    dim = as_vector(config.x0).size
    reference = None if config.reference is None else as_vector(config.reference, dim=dim)
    if isinstance(config.errors, GeometricError) and config.errors.direction.size != dim:
        raise ConfigurationError(
            f"error direction has dimension {config.errors.direction.size}, but x0 has {dim}")
    return RunPlan(lambdas, stacks, etas, config.weights, reference)


#: An error-free step whose residual r_n is finite and has ``lambda_n * r_n``
#: below this bound yields a finite x_{n+1} = xbar_n + lambda_n * step, with
#: no test of its entries.  A finite r_n = sqrt(sum_i step_i^2) makes every
#: step_i and xbar_i finite (an infinite or NaN entry of either makes r_n
#: infinite or NaN), and |step_i| <= r_n: a sum of nonnegative terms is
#: rounded monotonically, and sqrt(fl(s^2)) == |s| when s^2 does not
#: underflow (where it does, |step_i| < 2^-511, and lambda_n < 2^1024 keeps
#: the addend below 2^513).  Rounding is monotone, so the addend
#: fl(lambda_n * step_i) is at most fl(lambda_n * r_n) < 2^968 in magnitude.
#: The exact sum xbar_i + addend is then below DBL_MAX + 2^968, and a sum
#: rounds to infinity only from DBL_MAX + 2^970, half an ulp of DBL_MAX.
FINITE_ADDEND = 2.0**968


def _divergence(n: int, xbar: Vector, x: Vector, names_row: bool) -> NumericalDivergence:
    """The error for a non-finite ``x_{n+1}``: it names row ``n`` when the
    weight kernel formed a non-finite ``xbar_n`` (window and inertial rows;
    cesaro's kernel never named one)."""
    if names_row and xbar is not x and not all_finite(xbar):
        return NumericalDivergence(f"affine combination at row {n} is non-finite", iteration=n)
    return NumericalDivergence(f"iterate became non-finite at iteration {n}", iteration=n)


class _FlagLog(list):
    """numpy's error callback for one run's loop; ``call`` is the caller's."""

    def write(self, message):  # a category in mode "log": "Warning: <text>\n"
        self.append(message.removeprefix("Warning: ").removesuffix("\n"))

    def __call__(self, kind, flag):  # a category in mode "call"
        if self.call is None:  # numpy's own error when no callback is set
            raise NameError(f"python callback specified for {kind} but no function found.")
        return self.call(kind, flag)


def run(config: IterationConfig) -> RunTrace:
    """Iterate until the clean residual drops below ``stop_residual`` or
    ``max_iters`` is reached; returns the full trace.

    Every configuration error is raised by the pre-pass, before the first
    operator call; the loop then reads ``lambda_n``, the stack and
    ``eta_n`` from the plan, and keeps ``x_n`` in a local variable.  It
    writes ``x_{n+1}`` straight into the next row of ``trace.points``
    (``space.Rows.new_row``), and that orbit is all the trace keeps of the
    points: the weight family's step kernel (``schedules.orbit_mean``)
    returns ``xbar_n`` as a fresh vector that no row keeps, and
    ``trace.xbars`` forms the same rows again from the orbit when it is
    read.  A ``lambda_n`` shared by every n is kept once, as one float, and
    an error-free run keeps no theta column: such a step at d=2 retains
    about 26 B (``x_{n+1}`` and ``r_n``) whatever the weights, and 8 B more
    for an inertial row's ``eta_n``.  The kernels' history is O(w d), so a
    run's traced peak is about its orbit's, N d floats, for every family.
    When every row is one point (memoryless weights, or ``window(1)``) the
    loop calls no kernel, ``trace.xbars`` is the first ``n_steps`` rows of
    ``trace.points`` (the same memory), and the produced iterates coincide
    bit-for-bit with the plain recursion
    ``x <- x + lambda (T_1(...T_m x + e_m ...) + e_1 - x)`` (same
    floating-point operation order; at ``lambda_n == 1`` the update is
    ``x + step``, which equals ``x + 1.0 * step`` bit for bit).  A step
    whose ``errors_for(n)`` is None calls the stack's layer ``fn``s itself,
    innermost first; ``apply_stack`` serves the steps with errors.

    A non-finite ``x_{n+1}`` raises ``NumericalDivergence`` at step ``n``.
    A step without errors whose residual ``r_n`` is finite and has
    ``lambda_n * r_n < FINITE_ADDEND`` (2^968) needs no test: its
    ``x_{n+1}`` is finite (the proof is at ``FINITE_ADDEND``).  Every other
    step tests the entries of ``x_{n+1}``.  The window and inertial kernels
    do not test ``xbar_n``: a non-finite ``xbar_n`` makes ``r_n``, and so
    ``x_{n+1}``, non-finite, and the run then raises "affine combination at
    row n is non-finite" at the same n, after the layers have seen that
    ``xbar_n`` once.  A reference is checked before the loop and not read
    again: ``trace.dist_to_ref`` measures the orbit when it is read.

    ``trace.flags`` holds the numpy floating-point events of the loop in
    the run's thread, one per event, as numpy words them ("overflow
    encountered in dot").  The loop runs under ``np.errstate``, which numpy
    keeps per thread, with each category that ``np.geterr()`` sets to "warn"
    switched to "log".  The caller's other modes hold: "ignore" stays
    silent, "raise" raises ``FloatingPointError``, "print" prints, and
    "call" calls the caller's ``np.geterrcall()``.  A category the caller
    set to "log" is logged into ``trace.flags``, not into the caller's log.
    Every other warning (a layer's or a recorder's ``warnings.warn``,
    ``DegenerateSelectionWarning``) goes to the caller's warning filters.
    """
    plan = _prevalidate(config)
    x = as_vector(config.x0)
    horizon = config.max_iters

    points = Rows(x.size, horizon + 1)
    points.append(x)
    memoryless = plan.weights.support_bound == 1  # every row is x_n alone
    residuals, thetas, norms = array("d"), array("d"), array("d")
    recorder = config.aux_recorder
    columns = keep_columns = None  # the recorder's rows, opened at its first record
    shape = x.shape
    # bound once: the loop calls each of them once per step
    new_point, add = points.new_row, np.add
    keep_residual, keep_theta, keep_norms = residuals.append, thetas.append, norms.extend

    stack = plan.stacks  # the one LayerStack, unless the plan has one per n
    per_step = stack if isinstance(stack, list) else None
    if per_step is None:
        m, fns = stack.m, [op.fn for op in reversed(stack.layers)]
    else:
        m, fns = (per_step[0].m if per_step else 0), None
    no_error = (0.0,) * m
    lambdas = plan.lambdas
    each_lambda = repeat(lambdas) if isinstance(lambdas, float) else lambdas
    xbar_at = None if memoryless else orbit_mean(plan.weights, plan.etas)
    names_row = plan.weights.family in ("window", "inertial")
    errors_for = config.errors.errors_for
    if type(config.errors).errors_for is ErrorModel.errors_for:
        errors_for = None  # the error-free model: no call per step
    stop_residual = config.stop_residual
    stop_reason = "max_iters"
    log = _FlagLog()  # each category in mode "warn" is logged instead
    log.call = np.geterrcall()
    with np.errstate(call=log, **{k: "log" for k, v in np.geterr().items() if v == "warn"}):
        for n, lam in zip(range(horizon), each_lambda):
            xbar = x if memoryless else xbar_at(n, x)
            if per_step is not None and per_step[n] is not stack:
                stack = per_step[n]
                fns = [op.fn for op in reversed(stack.layers)]

            errors_n = None if errors_for is None else errors_for(n)
            if errors_n is None:
                value = xbar
                for fn in fns:
                    value = fn(value)
                step = value - xbar
                residual = norm(step)  # the clean pass is the step's own
            else:
                noisy = apply_stack(stack, xbar, errors_n)
                step = noisy.value - xbar
                residual = norm(noisy.clean - xbar)

            x_next = new_point()
            add(xbar, step if lam == 1.0 else lam * step, x_next)
            if errors_n is not None or not lam * residual < FINITE_ADDEND:
                if not all_finite(x_next):
                    raise _divergence(n, xbar, x, names_row)

            keep_residual(residual)
            if errors_for is not None:
                if errors_n is None:
                    keep_norms(no_error)
                    keep_theta(0.0)  # lambda_n * 0.0, as lambda_n > 0
                else:
                    keep_norms(noisy.error_norms)
                    keep_theta(lam * noisy.aggregate_error)
            if recorder is not None:
                record = recorder(n, xbar, errors_n)
                if columns is None:
                    columns = {key: Rows(x.size, horizon) for key in record}
                    keep_columns = [(key, rows.append) for key, rows in columns.items()]
                elif record.keys() != columns.keys():
                    raise ConfigurationError(
                        f"aux_recorder keys at n={n} are {list(record)}, "
                        f"not the first record's {list(columns)}"
                    )
                for key, keep in keep_columns:
                    value = record[key]
                    if type(value) is not np.ndarray or value.shape != shape:
                        value = _aux_value(key, n, value, x.size)
                    keep(value)

            x = x_next

            if stop_residual > 0.0 and residual <= stop_residual:
                stop_reason = "residual"
                break

    n_steps = len(residuals)
    if errors_for is None:
        thetas = None  # trace.thetas reads zeros
        # n_steps rows over one zero row, read-only as its buffer is bytes
        error_norms = np.ndarray((n_steps, m), np.float64, bytes(8 * m), 0, (0, 8))
    else:
        error_norms = np.frombuffer(norms, dtype=np.float64).reshape(n_steps, m)
    if not isinstance(lambdas, float):
        plan = replace(plan, lambdas=plan.lambda_column(n_steps))
    return RunTrace(
        config=config,
        plan=plan,
        points=points,
        residuals=residuals,
        kept_thetas=thetas,
        error_norms=error_norms,
        aux=None if recorder is None else AuxRecords(columns or {}, n_steps),
        stop_reason=stop_reason,
        flags=list(log),
    )


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


def _partial_sums(terms) -> tuple[np.ndarray, float]:
    """The partial sums ``S_0 .. S_N`` of ``terms``, added in order as a Python
    running sum adds them (bit for bit, and overflowing to inf without a
    warning), and the last quarter's increment ``S_N - S_{(3 N) // 4}`` in
    Python floats, where ``inf - inf`` is NaN without a warning (0.0 without terms)."""
    with np.errstate(over="ignore"):
        sums = np.cumsum(terms, dtype=np.float64)
    if not sums.size:
        return sums, 0.0
    return sums, float(sums[-1]) - float(sums[(3 * (sums.size - 1)) // 4])


def error_budget_check(config: IterationConfig, horizon: int) -> ErrorBudgetReport:
    """Partial sums of the chi-weighted error budget over a horizon.

    Sums ``chi_n lambda_n sum_i ||e_{i,n}||`` over the errors that the
    model's ``errors_for(n)`` returns, one call per n as in a run, without
    iterating.  Each n adds its layers' norms in layer order, as
    ``apply_stack`` does, so for nonnegative weights (``chi_n = 1``) and
    finite 1-D float64 errors the partial sums are
    ``np.cumsum(trace.thetas)`` of a run given the same errors, bit for bit;
    ``SequenceError`` reads every value through ``error_vector``, so its
    errors are such arrays whatever dtype the user gave.  An error whose
    shape is not x0's raises the run's ``dimension mismatch``; any other
    error value goes through ``as_vector``, which coerces it or raises.
    ``lambda_n`` and the stacks come from the run's pre-pass over
    ``horizon + 1`` steps, which raises the same configuration errors a run
    would.  Flags inertial weights carrying errors outside the supported
    regime (unit relaxation and a bounded-range outermost layer).  A model
    that calls user code (``SequenceError``) calls it again here, so a
    stateful or random sequence yields a budget for errors other than the
    ones a run injected.
    """
    check_integer(horizon, "budget horizon")
    if horizon < 1:
        raise ConfigurationError("budget horizon must be >= 1")
    plan = _prevalidate(config, horizon + 1)
    lambdas = plan.lambda_column(horizon + 1)
    x0 = as_vector(config.x0)
    shape = x0.shape
    weights = config.weights
    nonneg = weights.nonnegative
    flags: list[str] = []
    terms = []
    any_error = False
    errors_for = config.errors.errors_for
    for n, lam in enumerate(lambdas):
        chi_n = 1.0 if nonneg else chi_value(weights, n).value
        per_iter = 0
        for e in errors_for(n) or ():
            if e is None:
                continue
            fast = type(e) is np.ndarray and e.dtype == _FLOAT64 and e.shape == shape
            r = math.sqrt(e.dot(e)) if fast else math.inf  # norm(e), inlined
            if not math.isfinite(r):
                # another shape gets the run's message; then coerces, or raises
                # on non-finite entries; finite entries whose squares overflow
                # keep the norm inf
                check_same_dim(x0, e)
                r = norm(as_vector(e))
            per_iter += r
        if per_iter > 0.0:
            any_error = True
        terms.append(chi_n * lam * per_iter)
    if any_error and not nonneg:
        all_unit_lambda = all(lam == 1.0 for lam in lambdas)
        if not (all_unit_lambda and plan.stack_at(0).layers[0].bounded_range):
            flags.append(
                "unsupported-regime: errors under inertial weights are only "
                "covered with unit relaxation and a bounded-range outer layer"
            )
    sums, tail = _partial_sums(terms)
    return ErrorBudgetReport(partial_sums=sums, tail_increment=tail, flags=tuple(flags))
