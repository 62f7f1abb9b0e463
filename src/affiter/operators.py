"""Catalog and algebra of averaged (quasi)nonexpansive operators.

An operator ``T`` is alpha-averaged (quasi)nonexpansive when
``(1 - 1/alpha) Id + (1/alpha) T`` is (quasi)nonexpansive, ``alpha in (0, 1]``.
For a nonexpansive ``T`` with ``alpha < 1`` this is equivalent to

    ||Tu - Tv||^2 <= ||u - v||^2
                     - ((1-alpha)/alpha) ||(Id-T)u - (Id-T)v||^2

for all ``u, v``; for the quasinonexpansive class the same contraction is only
required against fixed points ``y``:

    2 (1-alpha) <y - Tx, x - Tx> <= (2 alpha - 1) (||x - y||^2 - ||Tx - y||^2).

A composition ``T_1 ... T_m`` of alpha_i-averaged layers is itself averaged
with constant

    phi = (1 + (sum_i alpha_i / (1 - alpha_i))^-1)^-1    if all alpha_i < 1,
    phi = 1                                              otherwise,

which caps the admissible relaxation at ``1/phi``.  Only the last layer of a
stack may be merely quasinonexpansive; earlier layers must be nonexpansive.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateSelectionWarning
from .space import Vector, as_vector, check_same_dim, dot, in_order_sum, matvec, norm

NONEXPANSIVE = "nonexpansive"
QUASINONEXPANSIVE = "quasinonexpansive"

#: absolute slack tolerance for sampled averagedness checks
CERTIFICATE_TOL = 1e-9


@dataclass(frozen=True)
class AveragedOperator:
    """An evaluable map with a declared averaging constant and class.

    Parameters
    ----------
    fn : callable
        The map ``x -> Tx`` on 1-D float64 arrays.
    alpha : float
        Averaging constant in ``(0, 1]``; ``alpha = 1`` means plain
        (quasi)nonexpansive.
    kind : str
        ``"nonexpansive"`` or ``"quasinonexpansive"``.
    name : str
        Label for reports and error messages.
    bounded_range : bool
        Whether the range of the operator is bounded (resolvents of
        bounded-domain maps, projectors onto bounded sets); the inertial
        error budget needs it of the outermost layer.

    ``compose`` (with the composite constant ``phi``), ``run``, the error
    budget and the certificates read only ``fn``, ``alpha``, ``kind`` and
    ``bounded_range``.
    """

    fn: Callable[[Vector], Vector]
    alpha: float
    kind: str = NONEXPANSIVE
    name: str = ""
    bounded_range: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.kind not in (NONEXPANSIVE, QUASINONEXPANSIVE):
            raise ConfigurationError(f"unknown operator class {self.kind!r}")

    def __call__(self, x: Vector) -> Vector:
        return self.fn(x)


# ---------------------------------------------------------------------------
# monotone-map descriptors (closed-form resolvents only)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneMap:
    """A maximally monotone map with a closed-form resolvent ``(Id + g A)^-1``.

    ``graph_contains(y, u)`` decides ``u in A(y)`` where that is finitely
    checkable.
    """

    name: str
    resolvent: Callable[[float, Vector], Vector]
    mapping: Callable[[Vector], Vector] | None = None
    graph_contains: Callable[[Vector, Vector, float], bool] | None = None
    bounded_domain: bool = False


def soft_threshold(x: Vector, t: float) -> Vector:
    """``sign(x) * max(|x| - t, 0)`` for a float vector ``x`` and ``t >= 0``,
    as ``x`` minus its clip to ``[-t, t]`` with the sign of ``x``: four ufuncs
    and one temporary.  Bit for bit ``np.sign(x) * np.maximum(np.abs(x) - t,
    0.0)``, infinities and subnormals included, except at ``x = -0.0``: that
    form gives +0.0 there (``np.sign(-0.0)`` is +0.0), this one -0.0.  A NaN
    entry gives NaN in both, with the sign of ``x`` here, where that form's
    sign bit depends on numpy's loop."""
    r = np.minimum(x, t)
    np.maximum(r, -t, out=r)
    np.subtract(x, r, out=r)
    return np.copysign(r, x, out=r)


def l1_subdifferential(weight: float = 1.0) -> MonotoneMap:
    """Subdifferential of ``weight * ||.||_1``; resolvent is soft thresholding."""
    if not weight > 0:
        raise ConfigurationError("l1 weight must be positive")

    def graph(y, u, tol=1e-9):
        on = y != 0.0
        ok_on = np.all(np.abs(u[on] - weight * np.sign(y[on])) <= tol)
        ok_off = np.all(np.abs(u[~on]) <= weight + tol)
        return bool(ok_on and ok_off)

    return MonotoneMap(
        name=f"l1_subdifferential(weight={weight})",
        resolvent=lambda g, x: soft_threshold(x, g * weight),
        graph_contains=graph,
    )


def affine_monotone(matrix, offset) -> MonotoneMap:
    """Single-valued affine map ``x -> M x + c`` with ``M`` positive semidefinite.

    A scalar, a 1-D diagonal, or a 2-D matrix without off-diagonal nonzeros
    is kept as its diagonal ``D``: ``mapping`` is ``D x + c`` and the
    resolvent is the closed form ``(x - g c) / (1 + g D)``, O(d) in time and
    memory.  The division (not a multiply by the reciprocal) reproduces
    ``np.linalg.solve`` on ``I + g M`` bit for bit, up to the sign of an
    exact zero.  The diagonal resolvent keeps ``(g, g c, 1 + g D)`` for the
    last ``g`` object in one tuple and reads that tuple once per call, so a
    run with a fixed step forms the two products once, and concurrent calls
    with different steps never mix entries.  The key is the object, not its
    value: a float is immutable, so the same object gives the same products
    bit for bit.  Any other matrix is stored dense: ``mapping`` is
    ``space.matvec``, and the resolvent solves ``(I + g M) y = x - g c`` by
    LAPACK (``np.linalg.solve``), whose last bits depend on the host.
    Monotonicity of ``M`` is the caller's assertion; it is exercised by the
    sampled certificates.
    """
    c = as_vector(offset)
    m = np.asarray(matrix, dtype=np.float64)
    square = m.ndim == 2 and m.shape[0] == m.shape[1]
    if square and np.count_nonzero(m) == np.count_nonzero(np.diagonal(m)):
        m = np.diagonal(m)
    if m.ndim == 0:
        m = np.full(c.size, float(m))
    if m.ndim == 1:
        if m.size != c.size:
            raise ConfigurationError(f"diagonal length {m.size} does not match offset {c.size}")
        diag = m.copy()  # np.diagonal is a view of the caller's matrix

        def mapping(x):
            return diag * x + c

        memo = (None, None, None)  # (g, g * c, 1.0 + g * diag) for the last g

        def resolvent(g, x):
            nonlocal memo
            last = memo  # one read: a concurrent call with another g swaps the whole tuple
            if last[0] is not g:
                last = memo = (g, g * c, 1.0 + g * diag)
            return (x - last[1]) / last[2]
    else:
        if m.shape != (c.size, c.size):
            raise ConfigurationError(f"matrix shape {m.shape} does not match offset {c.size}")
        eye = np.eye(c.size)

        def mapping(x):
            return matvec(m, x) + c

        def resolvent(g, x):
            return np.linalg.solve(eye + g * m, x - g * c)

    return MonotoneMap(
        name="affine_monotone",
        resolvent=resolvent,
        mapping=mapping,
        graph_contains=lambda y, u, tol=1e-9: norm(u - mapping(y)) <= tol,
    )


def normal_cone(set_kind: str, bounded: bool | None = None, **params) -> MonotoneMap:
    """Normal cone of one of the catalog convex sets; resolvent is the projector.
    Its domain is bounded when the projector's range is, unless ``bounded`` says."""
    proj = projector(set_kind, **params)
    return MonotoneMap(
        name=f"normal_cone({set_kind})",
        resolvent=lambda g, x: proj.fn(x),
        bounded_domain=proj.bounded_range if bounded is None else bounded,
    )


# ---------------------------------------------------------------------------
# operator factories
# ---------------------------------------------------------------------------

def prox_l1(gamma: float, weight: float = 1.0) -> AveragedOperator:
    """Soft-thresholding prox of ``weight * ||.||_1`` at step ``gamma``; firmly nonexpansive."""
    if not gamma > 0:
        raise ConfigurationError("prox step gamma must be positive")
    t = gamma * weight
    return AveragedOperator(
        fn=lambda x: soft_threshold(x, t),
        alpha=0.5,
        name=f"prox_l1(gamma={gamma})",
    )


#: the params each projector set kind reads, all of them required
PROJECTOR_PARAMS = {
    "box": ("lo", "hi"),
    "ball": ("center", "radius"),
    "halfspace": ("normal", "offset"),
    "nonneg": (),
    "hyperplane": ("normal", "offset"),
}


def projector(set_kind: str, **params) -> AveragedOperator:
    """Euclidean projector onto one of the catalog convex sets.

    Kinds: ``box(lo, hi)``, ``ball(center, radius)``, ``halfspace(normal,
    offset)`` for ``{x : <normal, x> <= offset}``, ``nonneg``, and
    ``hyperplane(normal, offset)`` for ``{x : <normal, x> = offset}``.  A
    missing param, or one the kind does not read, is a ConfigurationError
    that names it.
    """
    if set_kind not in PROJECTOR_PARAMS:
        raise ConfigurationError(f"unknown projector set {set_kind!r}")
    wanted = PROJECTOR_PARAMS[set_kind]
    for what, keys in (("missing", [key for key in wanted if key not in params]),
                       ("unknown", [key for key in params if key not in wanted])):
        if keys:
            raise ConfigurationError(
                f"{what} projector({set_kind}) params: {', '.join(map(repr, keys))}"
            )
    if set_kind == "box":
        lo, hi = as_vector(params["lo"]), as_vector(params["hi"])
        if np.any(lo > hi):
            raise ConfigurationError("box has lo > hi")
        fn = lambda x: np.clip(x, lo, hi)
        bounded = True
    elif set_kind == "ball":
        center, radius = as_vector(params["center"]), float(params["radius"])
        if not radius > 0:
            raise ConfigurationError("ball radius must be positive")

        def fn(x):
            d = x - center
            nd = norm(d)
            return x if nd <= radius else center + (radius / nd) * d

        bounded = True
    elif set_kind == "halfspace":
        a, b = as_vector(params["normal"]), float(params["offset"])
        na2 = dot(a, a)
        if na2 == 0.0:
            raise ConfigurationError("halfspace normal must be nonzero")
        fn = lambda x: x - (max(dot(a, x) - b, 0.0) / na2) * a
        bounded = False
    elif set_kind == "nonneg":
        fn = lambda x: np.maximum(x, 0.0)
        bounded = False
    else:  # hyperplane
        a, b = as_vector(params["normal"]), float(params["offset"])
        na2 = dot(a, a)
        if na2 == 0.0:
            raise ConfigurationError("hyperplane normal must be nonzero")
        fn = lambda x: x - ((dot(a, x) - b) / na2) * a
        bounded = False
    return AveragedOperator(
        fn=fn,
        alpha=0.5,
        name=f"projector({set_kind})",
        bounded_range=bounded,
    )


def gradient_step(gamma: float, grad: Callable[[Vector], Vector], beta: float) -> AveragedOperator:
    """Explicit step ``Id - gamma * grad`` for a ``beta``-cocoercive gradient.

    Averaged with constant ``gamma / (2 beta)``; requires ``0 < gamma < 2 beta``.
    """
    if not beta > 0:
        raise ConfigurationError("cocoercivity constant beta must be positive")
    if not 0.0 < gamma < 2.0 * beta:
        raise ConfigurationError(
            f"gradient step gamma={gamma} outside (0, 2*beta)=(0, {2 * beta})"
        )
    return AveragedOperator(
        fn=lambda x: x - gamma * grad(x),
        alpha=gamma / (2.0 * beta),
        name=f"gradient_step(gamma={gamma}, beta={beta})",
    )


def resolvent_operator(gamma: float, mono: MonotoneMap) -> AveragedOperator:
    """Resolvent ``(Id + gamma A)^-1`` of a catalog monotone map; firmly nonexpansive."""
    if not gamma > 0:
        raise ConfigurationError("resolvent step gamma must be positive")
    return AveragedOperator(
        fn=lambda x: mono.resolvent(gamma, x),
        alpha=0.5,
        name=f"resolvent({mono.name}, gamma={gamma})",
        bounded_range=mono.bounded_domain,
    )


def reflector_operator(gamma: float, mono: MonotoneMap) -> AveragedOperator:
    """Reflected resolvent ``2 (Id + gamma A)^-1 - Id``; nonexpansive (alpha = 1)."""
    if not gamma > 0:
        raise ConfigurationError("reflector step gamma must be positive")

    def fn(x):
        j = mono.resolvent(gamma, x)
        return j + j - x  # 2 j - x: doubling by addition is exact, as 2.0 * j is

    return AveragedOperator(
        fn=fn,
        alpha=1.0,
        name=f"reflector({mono.name}, gamma={gamma})",
    )


def subgradient_projector(
    f: Callable[[Vector], float],
    s: Callable[[Vector], Vector],
    theta: float,
) -> AveragedOperator:
    """One subgradient step toward the sublevel set ``{f <= theta}``.

    Returns ``x`` unchanged when ``f(x) <= theta``; otherwise steps along the
    selection ``s(x)``.  Firmly quasinonexpansive.  A zero selection at a
    point strictly above the level contradicts attainment of ``theta`` and
    signals a bad selection oracle; the input is returned unchanged and a
    ``DegenerateSelectionWarning`` is emitted.
    """

    def fn(x):
        fx = float(f(x))
        if fx <= theta:
            return x.copy()
        g = s(x)
        ng2 = dot(g, g)
        if ng2 == 0.0:
            warnings.warn(
                f"zero subgradient selection at a point with f(x)={fx} > theta={theta}",
                DegenerateSelectionWarning,
                stacklevel=2,
            )
            return x.copy()
        return x + ((theta - fx) / ng2) * g

    return AveragedOperator(
        fn=fn,
        alpha=0.5,
        kind=QUASINONEXPANSIVE,
        name=f"subgradient_projector(theta={theta})",
    )


def relaxed(op: AveragedOperator, xi: float) -> AveragedOperator:
    """Relaxation ``Id + xi (G - Id)`` of a firmly (quasi)nonexpansive ``G``.

    Requires ``G.alpha == 1/2`` and ``xi in (0, 2)``; the result is
    ``xi/2``-averaged and inherits the class of ``G``.
    """
    if op.alpha != 0.5:
        raise ConfigurationError("relaxed() needs a firmly (quasi)nonexpansive operator")
    if not 0.0 < xi < 2.0:
        raise ConfigurationError(f"relaxation xi={xi} outside (0, 2)")
    return AveragedOperator(
        fn=lambda x: x + xi * (op.fn(x) - x),
        alpha=xi / 2.0,
        kind=op.kind,
        name=f"relaxed({op.name}, xi={xi})",
        bounded_range=op.bounded_range,
    )


def linear_operator(matrix, alpha: float = 1.0, kind: str = NONEXPANSIVE) -> AveragedOperator:
    """Linear map with a user-asserted averaging constant and class.

    There is no closed-form alpha for a general matrix, so the assertion is
    meant to be exercised through ``averagedness_certificate``.  The map is
    ``space.matvec``, whose transient holds d² floats for a d x d matrix.
    """
    m = np.asarray(matrix, dtype=np.float64)
    return AveragedOperator(fn=lambda x: matvec(m, x), alpha=alpha, kind=kind, name="linear")


# ---------------------------------------------------------------------------
# layer stacks
# ---------------------------------------------------------------------------

def composite_phi(alphas: Sequence[float]) -> float:
    """Averaging constant of a composition from its per-layer constants."""
    alphas = list(alphas)
    if not alphas:
        raise ConfigurationError("empty layer list")
    if max(alphas) < 1.0:
        s = in_order_sum(a / (1.0 - a) for a in alphas)
        return 1.0 / (1.0 + 1.0 / s)
    return 1.0


@dataclass(frozen=True)
class LayerStack:
    """Ordered composition ``T_1 ... T_m`` (index 0 is the outermost layer)."""

    layers: tuple[AveragedOperator, ...]
    phi: float
    case: str  # "a": all layers nonexpansive, m > 1; "b": quasinonexpansive
    # last layer with alpha < 1, m > 1; "c": single layer

    @property
    def m(self) -> int:
        return len(self.layers)


def compose(layers: Sequence[AveragedOperator]) -> LayerStack:
    """Validate layer classes and derive the composite averaging constant.

    Only the last layer may be quasinonexpansive; a quasinonexpansive last
    layer in a multi-layer stack additionally needs ``alpha < 1`` and a
    common fixed point across layers (asserted by the caller, not checked).
    """
    layers = tuple(layers)
    if not layers:
        raise ConfigurationError("a stack needs at least one layer")
    m = len(layers)
    for i, op in enumerate(layers[:-1]):
        if op.kind != NONEXPANSIVE:
            raise ConfigurationError(
                f"layer {i + 1} of {m} is {op.kind}; only the last layer may be"
            )
    last = layers[-1]
    if m == 1:
        case = "c"
    elif last.kind == QUASINONEXPANSIVE:
        if last.alpha >= 1.0:
            raise ConfigurationError(
                "a quasinonexpansive last layer in a multi-layer stack needs alpha < 1"
            )
        case = "b"
    else:
        case = "a"
    return LayerStack(layers=layers, phi=composite_phi(op.alpha for op in layers), case=case)


@dataclass(slots=True)
class StackApplication:
    """Result of one (possibly perturbed) pass through a stack.

    ``clean`` is the error-free composite ``T_1 ... T_m x``: ``value``
    itself on an error-free pass, the clean chain when errors were given.
    A plain ``slots`` record, not frozen: ``run`` builds one on each step
    with errors, and a frozen dataclass costs about four times as much to
    construct.  Nothing reassigns its fields.
    """

    value: Vector
    error_norms: tuple[float, ...]
    clean: Vector


def excess_errors(m: int, given: int) -> ConfigurationError:
    """The error for ``given`` per-layer errors on a stack of ``m < given`` layers."""
    return ConfigurationError(f"expected at most {m} per-layer errors, got {given}")


def apply_stack(stack: LayerStack, x: Vector, errors=None) -> StackApplication:
    """Evaluate ``T_1(T_2(... T_m x + e_m ...) + e_2) + e_1``.

    ``errors`` is ``None`` (clean pass) or a sequence of per-layer vectors
    (``None`` entries allowed), outermost first; a sequence shorter than the
    stack leaves the inner layers exact, a longer one is rejected.  Before
    any layer call, an error that is not an ndarray of ``x``'s shape is
    checked with ``check_same_dim`` and read as a float64 array, so a list
    gives what its array gives.  When the outer layers are nonexpansive, the
    aggregate error ``in_order_sum(error_norms)`` bounds the deviation of the
    perturbed output from the clean composite.

    ``errors=None`` injects no error, as a sequence of ``None`` does: the
    pass is the layers' ``fn`` calls, innermost first, the norms are m
    zeros, and ``clean`` is ``value`` itself.

    With errors the same pass also returns the clean composite ``T_1 ...
    T_m x``: the innermost perturbed layer and the layers inside it run
    once, and only the layers outside it run on both chains, so each value
    comes from the same calls on the same inputs as a separate pass.  On
    each layer both chains share, the clean chain is evaluated first and
    the perturbed one last; ``solvers.peaceman_rachford`` reads the
    perturbed chain's resolvents through that order.
    """
    m = stack.m
    given = 0 if errors is None else len(errors)
    if given > m:
        raise excess_errors(m, given)
    if given:
        shape = np.shape(x)
        for k, e in enumerate(errors):
            if e is not None and (type(e) is not np.ndarray or e.shape != shape):
                check_same_dim(x, e)  # lists and mismatches get its message
                errors = list(errors)  # a copy: the caller's sequence stays as given
                errors[k] = np.asarray(e, dtype=np.float64)
    y = x
    exact = None  # the clean chain, once an error has split it from y
    norms = [0.0] * m
    for i in range(m, 0, -1):
        fn = stack.layers[i - 1].fn
        if exact is not None:
            exact = fn(exact)
        y = fn(y)
        e = errors[i - 1] if i <= given else None
        if e is not None:
            if exact is None:
                exact = y
            y = y + e
            norms[i - 1] = norm(e)
    if exact is None:  # every given error was None
        exact = y
    return StackApplication(value=y, error_norms=tuple(norms), clean=exact)


def tail_apply(stack: LayerStack, i: int, x: Vector) -> Vector:
    """Apply the inner tail ``T_{i+1} ... T_m`` (identity when ``i == m``)."""
    if not 1 <= i <= stack.m:
        raise ConfigurationError(f"tail index {i} outside 1..{stack.m}")
    y = x
    for k in range(stack.m, i, -1):
        y = stack.layers[k - 1].fn(y)
    return y


# ---------------------------------------------------------------------------
# sampled averagedness certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AveragednessReport:
    operator: str
    alpha: float
    kind: str
    samples: int
    seed: int
    max_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


def averagedness_certificate(
    op: AveragedOperator,
    dim: int,
    sample_count: int = 1000,
    seed: int = 0,
    fixed_points: Sequence[Vector] | None = None,
    scale: float = 4.0,
    tolerance: float = CERTIFICATE_TOL,
) -> AveragednessReport:
    """Sampled check of the declared averaging constant.

    For the nonexpansive class the two-point contraction inequality is
    evaluated on random pairs; for the quasinonexpansive class the inner
    product form is evaluated against the supplied fixed points.  The check
    passes when the largest violation stays within ``tolerance``.
    """
    rng = np.random.default_rng(seed)
    viols = []
    if op.kind == QUASINONEXPANSIVE:
        if not fixed_points:
            raise ConfigurationError(
                "quasinonexpansive certificate needs known fixed points"
            )
        fps = [as_vector(p, dim) for p in fixed_points]
        for k in range(sample_count):
            x = scale * rng.standard_normal(dim)
            y = fps[k % len(fps)]
            tx = op.fn(x)
            lhs = 2.0 * (1.0 - op.alpha) * dot(y - tx, x - tx)
            rhs = (2.0 * op.alpha - 1.0) * (dot(x - y, x - y) - dot(tx - y, tx - y))
            viols.append(lhs - rhs)
    else:
        coeff = (1.0 - op.alpha) / op.alpha
        for _ in range(sample_count):
            u = scale * rng.standard_normal(dim)
            v = scale * rng.standard_normal(dim)
            tu, tv = op.fn(u), op.fn(v)
            d_im = tu - tv
            d = u - v
            r = (u - tu) - (v - tv)
            viols.append(dot(d_im, d_im) + coeff * dot(r, r) - dot(d, d))
    return AveragednessReport(
        operator=op.name or repr(op.fn),
        alpha=op.alpha,
        kind=op.kind,
        samples=sample_count,
        seed=seed,
        # np.max, not max(): a NaN violation makes the maximum NaN, so a fail
        max_violation=float(np.max(viols, initial=0.0)),
        tolerance=tolerance,
    )
