"""Executable per-iteration convergence certificates.

Given a trace and a reference point ``x* = x_ref`` in the common fixed-point
set, three inequalities are evaluated per iteration (slack = RHS - LHS,
declared PASS when no slack is below ``-tolerance`` or NaN):

  (i)   ||x_{n+1} - x*||  <=  sum_j |mu_{n,j}| ||x_j - x*||  +  theta_n

  (ii)  ||x_{n+1} - x*||^2  <=  ||xbar_n - x*||^2
          - lambda_n (1/phi_n - lambda_n) ||T_n xbar_n - xbar_n||^2 + nu_n

  (iii) ||x_{n+1} - x*||^2  <=  ||xbar_n - x*||^2
          + lambda_n (lambda_n - 1) ||T_n xbar_n - xbar_n||^2
          - lambda_n max_i ((1-alpha_i)/alpha_i)
                ||(Id - T_i) T_{i+} xbar_n - (Id - T_i) T_{i+} x*||^2 + nu_n

where ``theta_n = lambda_n sum_i ||e_{i,n}||``, ``nu_n = theta_n (2 ||xbar_n
- x*|| + theta_n)``, and ``T_{i+}`` is the inner tail of the stack.  The
paper states (ii) and (iii) with ``sum_j mu_{n,j} ||x_j - x*||^2 - 1/2
sum_{j,k} mu_{n,j} mu_{n,k} ||x_j - x_k||^2`` in place of ``||xbar_n -
x*||^2``; the two are equal for every row whose weights sum to 1, with
negative weights allowed (the identity for affine combinations).  So (ii)
and (iii) read ``xbar_n`` and cost O(d) per step (plus the stack tails for
(iii)).  No trace stores ``xbar_n``: for inertial, window and cesaro traces
it is formed from the orbit one packed block at a time
(``RunTrace.xbar_blocks``, the block form of the run's step kernel, bit for
bit the point the run fed to the stack, at one step kernel's arithmetic per
row), and its distances ``||xbar_n - x*||`` are taken per block by
``space.row_distances``, the kernel that measures ``trace.dist_to_ref``.
So the transient is O(block), not O(N d).  Every squared norm is summed in
``space``'s one order, so each slack is the same float on every host.
Certificate (i) builds no weight row:
``schedules.abs_weighted_sums`` forms its sum per family from the
distances ``||x_j - x*||``, in O(N) for every family but ``window(w)``
(O(N w)).  These are deterministic functions of the trace: recomputing
yields identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import RunTrace, _partial_sums
from .errors import ConfigurationError, InvalidReferenceError
from .operators import apply_stack, tail_apply
from .schedules import abs_weighted_sums
from .space import Vector, as_vector, dot, norm, row_distances

DEFAULT_CERT_TOL = 1e-9


@dataclass(frozen=True)
class CertificateReport:
    name: str
    slacks: np.ndarray
    tolerance: float

    @property
    def min_slack(self) -> float:
        return float(np.min(self.slacks)) if self.slacks.size else 0.0

    @property
    def first_violation(self) -> int | None:
        # a NaN slack fails: it is not >= -tolerance
        bad = np.nonzero(~(self.slacks >= -self.tolerance))[0]
        return int(bad[0]) if bad.size else None

    @property
    def passed(self) -> bool:
        return self.first_violation is None


def verify_reference(trace: RunTrace, x_ref: Vector, tol: float = 1e-9) -> None:
    """Check that ``x_ref`` is fixed by every stack the run applied.

    The stacks are read from the trace, so a stack provider is not called
    again.  A single LayerStack is checked once.  Per-iteration stacks are
    checked at every step the run took, except that a step whose stack is
    the same object as the step before's is not checked again.  Multi-layer
    stacks with a quasinonexpansive last layer assume a common fixed point,
    so each layer is checked individually there; otherwise the composite
    residual suffices.
    """
    for n, stack in trace.plan.stacks_applied(trace.n_steps):
        if stack.case == "b":
            for i, layer in enumerate(stack.layers, start=1):
                if norm(layer.fn(x_ref) - x_ref) > tol:
                    raise InvalidReferenceError(
                        f"reference is not fixed by layer {i} of the stack at n={n}"
                    )
        else:
            resid = norm(apply_stack(stack, x_ref).value - x_ref)
            if resid > tol:
                raise InvalidReferenceError(
                    f"reference has composite fixed-point residual {resid:.3e} at n={n}"
                )


def run_certificates(
    trace: RunTrace,
    x_ref,
    which: Sequence[str] = ("i", "ii"),
    tolerance: float = DEFAULT_CERT_TOL,
    check_reference: bool = True,
) -> dict[str, CertificateReport]:
    """Evaluate the requested certificate slacks at every step n = 0 .. N-1.

    The distances ``||x_j - x*||``, ``j <= N``, are measured in one pass
    (``space.Rows.distances``, the kernel behind ``trace.dist_to_ref``),
    bit for bit ``norm(x_j - x*)``, whatever x* is.

    Certificate (i) builds no weight row: ``schedules.abs_weighted_sums``
    forms ``sum_j |mu_{n,j}| ||x_j - x*||`` from the distances and the
    eta_n the run applied (``trace.plan.etas``).  That costs O(N) for memoryless,
    inertial and cesaro traces and O(N w) for ``window(w)``.  Except for
    cesaro, the slacks are bit for bit those of ``fsum`` over row ``n``'s
    terms ``|mu_{n,j}| ||x_j - x*||``; cesaro's running sum stays within
    about ``2 eps`` of that ``fsum``, relative.  Certificates (ii) and (iii)
    start from ``||xbar_n - x*||^2``, so they cost O(d) per step.  Where
    ``xbar_n`` is not ``x_n`` those distances take a second pass, which
    forms ``xbar_n`` from the orbit one packed block at a time
    (``trace.xbar_blocks()``, bit for bit the point the run fed to the
    stack; for cesaro one ``np.add.accumulate`` and one divide by the
    counts per block)
    and measures each block by ``space.row_distances``, bit for bit
    ``norm``.  Certificate (iii) reads ``xbar_n`` from a
    second such pass, so no pass holds more than one block of ``xbar_n``.
    ``trace.lambdas`` and ``trace.thetas`` are read once.  The squares of
    the distances and of r_n are ``np.square``, correctly rounded as
    ``v * v`` is, and the rest of (ii) is float64 array arithmetic in the
    order of the per-step Python expression, so each slack is that
    expression's float, bit for bit.  Stacks are read
    from the trace's plan (``trace.plan.stack_at``), never from a stack provider.
    Certificate (iii) also evaluates the stack tails at ``xbar_n`` every
    iteration, and at ``x_ref`` once per distinct stack; its maximum over
    the layers is NaN when a layer term is, so that slack fails.
    """
    if isinstance(which, str):  # set("ii") is {"i"}, and "ii" in "iii" holds
        raise ConfigurationError(f"which must be a sequence of certificate names, got {which!r}")
    x_ref = as_vector(x_ref, dim=trace.points.dim)
    unknown = set(which) - {"i", "ii", "iii"}
    if unknown:
        raise ConfigurationError(f"unknown certificates {sorted(unknown)}")
    if check_reference:
        verify_reference(trace, x_ref)

    n_steps = trace.n_steps
    thetas, lambdas = trace.thetas, trace.lambdas  # built on read where not kept
    # a NaN or infinite slack fails its verdict; numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.empty(n_steps + 1)
        trace.points.distances(x_ref, d)

        slacks = {}
        if "i" in which:
            rhs = abs_weighted_sums(trace.plan.weights, d, trace.plan.etas)
            slacks["i"] = (rhs + np.asarray(thetas)) - d[1:]
        # (ii) and (iii) share ||xbar_n - x*||^2 - ||x_{n+1} - x*||^2 + nu_n,
        # float64 array operations in the scalar expression's order
        if {"ii", "iii"} & set(which):
            # rows of one point are x_n itself; the others are formed and
            # measured one block at a time
            squares = np.square(d)
            dbars, dbar_squares = d[:n_steps], squares[:n_steps]
            if trace.plan.weights.support_bound != 1:
                dbars = np.empty(n_steps)
                for start, rows in trace.xbar_blocks():
                    row_distances(rows, x_ref, dbars[start : start + len(rows)])
                dbar_squares = np.square(dbars)
            theta = np.frombuffer(thetas)
            base = (dbar_squares - squares[1:]) + theta * (2.0 * dbars + theta)
        if "ii" in which:
            lam, phi = np.frombuffer(lambdas), np.frombuffer(trace.phis)
            slacks["ii"] = base - (lam * (1.0 / phi - lam)) * np.square(trace.residuals)
        if "iii" in which:
            iii = []
            ref_stack = None
            xbars = (xbar for _start, rows in trace.xbar_blocks() for xbar in rows)
            columns = zip(xbars, base.tolist(), lambdas, trace.residuals)
            for n, (xbar, b, lam, r) in enumerate(columns):
                stack = trace.plan.stack_at(n)
                if stack is not ref_stack:
                    # (Id - T_i) T_{i+} x_ref, for each layer with a nonzero coefficient
                    ref_stack, ref_disps = stack, []
                    for i, layer in enumerate(stack.layers, start=1):
                        coeff = (1.0 - layer.alpha) / layer.alpha
                        if coeff != 0.0:
                            t_ref = tail_apply(stack, i, x_ref)
                            ref_disps.append((i, layer, coeff, t_ref - layer.fn(t_ref)))
                layer_term = 0.0
                for i, layer, coeff, d_ref in ref_disps:
                    t_bar = tail_apply(stack, i, xbar)
                    disp = (t_bar - layer.fn(t_bar)) - d_ref
                    layer_term = np.maximum(layer_term, coeff * dot(disp, disp))
                iii.append(b + lam * (lam - 1.0) * (r * r) - lam * layer_term)
            slacks["iii"] = np.array(iii)
    return {
        name: CertificateReport(name=name, slacks=slacks[name], tolerance=tolerance)
        for name in which
    }


# ---------------------------------------------------------------------------
# Gronwall-type envelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GronwallReport:
    envelope: np.ndarray          # envelope[n] bounds theta_{n+1}
    dominated: bool | None        # None when no sequence was supplied
    first_violation: int | None


def gronwall_envelope(
    theta0: float,
    nu_seq: Sequence[float],
    eps_seq: Sequence[float],
    theta_seq: Sequence[float] | None = None,
) -> GronwallReport:
    """Envelope for sequences obeying ``theta_{n+1} <= (1 + nu_n) theta_n + eps_n``.

    Returns, for each ``n``, the recurrence

        env_n = exp(nu_n) env_{n-1} + eps_n,    env_{-1} = theta0,

    which unrolls to ``theta0 exp(sum_{k<=n} nu_k) + sum_{j<n} eps_j
    exp(sum_{k=j+1}^{n} nu_k) + eps_n``.  When ``theta_seq`` (= theta_0,
    theta_1, ...) is supplied, checks ``theta_{n+1} <= env_n`` and reports
    the first violation.
    """
    # each check fails on NaN, and a NaN envelope entry is a violation
    if not theta0 >= 0.0:
        raise ConfigurationError("theta0 must be nonnegative")
    nu = np.asarray(nu_seq, dtype=np.float64)
    eps = np.asarray(eps_seq, dtype=np.float64)
    if not np.all(eps >= 0.0):
        raise ConfigurationError("eps sequence must be nonnegative")
    n_max = min(nu.size, eps.size)
    steps = []
    prev = float(theta0)
    for nu_n, eps_n in zip(nu.tolist(), eps.tolist()):
        prev = math.exp(nu_n) * prev + eps_n
        steps.append(prev)
    env = np.array(steps)
    dominated = None
    first_violation = None
    if theta_seq is not None:
        th = np.asarray(theta_seq, dtype=np.float64)
        if not np.all(th >= 0.0):
            raise ConfigurationError("theta sequence must be nonnegative")
        upto = min(n_max, th.size - 1)
        viol = np.nonzero(~(th[1 : upto + 1] <= env[:upto] * (1 + 1e-12) + 1e-15))[0]
        dominated = viol.size == 0
        first_violation = int(viol[0]) if viol.size else None
    return GronwallReport(envelope=env, dominated=dominated, first_violation=first_violation)


# ---------------------------------------------------------------------------
# inertial parameter bands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InertialBandParams:
    """Tuning constants of the inertial relaxation bands.

    ``theta_tune`` is the band's free scaling constant (distinct from the
    per-iteration error budget theta_n).
    """

    eta: float
    sigma: float
    theta_tune: float

    def __post_init__(self):
        # eta = 0 collapses to the inertia-free relaxation band and is legal
        if not 0.0 <= self.eta < 1.0:
            raise ConfigurationError("eta must lie in [0, 1)")
        if not (self.sigma > 0.0 and self.theta_tune > 0.0):
            raise ConfigurationError("sigma and theta_tune must be positive")


@dataclass(frozen=True)
class InertialBandReport:
    ok: bool
    first_violation: int | None
    violated: str | None
    lambda_margin: float          # min over n of (cap_n - lambda_n)
    sigma_margin: float           # min over n of (RHS - LHS) in the strict condition
    monotone_margin: float        # min over n of eta_{n+1} - eta_n and eta - eta_n


def inertial_band_validate(
    params: InertialBandParams,
    phi_seq: Sequence[float],
    lambda_seq: Sequence[float],
    eta_seq: Sequence[float],
) -> InertialBandReport:
    """Validate the inertial relaxation bands along given sequences.

    For every ``n`` with ``n + 1`` still in range, with
    ``omega_n = 1/phi_n - lambda_n``:

      - ``eta_n <= eta_{n+1} <= eta``;
      - ``lambda_n <= (theta/phi_n - eta B_n) / (theta (1 + B_n))`` where
        ``B_n = eta (1 + eta) + eta theta omega_{n+1} + sigma``;
      - ``(eta^2 (1 + eta) + eta sigma) / theta < 1/phi_n - eta^2 omega_{n+1}``.

    Pure validation: reports margins, never raises on violation.
    """
    phi = np.asarray(phi_seq, dtype=np.float64)
    lam = np.asarray(lambda_seq, dtype=np.float64)
    eta_n = np.asarray(eta_seq, dtype=np.float64)
    L = min(phi.size, lam.size, eta_n.size)
    if L < 2:
        raise ConfigurationError("need sequences of length >= 2")
    if not np.all((phi[:L] > 0.0) & (phi[:L] <= 1.0)):
        raise ConfigurationError("phi values must lie in (0, 1]")
    e, sg, th = params.eta, params.sigma, params.theta_tune
    # the steps n = 0 .. L-2, each with omega_{n+1}; every margin is a NaN-propagating min
    omega = 1.0 / phi[1:L] - lam[1:L]
    phi, lam = phi[: L - 1], lam[: L - 1]
    mono = np.minimum(eta_n[1:L] - eta_n[: L - 1], e - eta_n[1:L])
    b = e * (1.0 + e) + e * th * omega + sg
    cap = (th / phi - e * b) / (th * (1.0 + b))
    strict = (1.0 / phi - e * e * omega) - (e * e * (1.0 + e) + e * sg) / th
    # the strict condition guarantees the cap is positive, so it is checked
    # first and named on simultaneous violations; NaN fails each
    checks = (
        (~(mono >= 0.0), "eta monotonicity / bound"),
        (~(strict > 0.0), "strict sigma condition"),
        (~((0.0 < lam) & (lam <= cap)), "lambda cap"),
    )
    bad = np.flatnonzero(np.logical_or.reduce([fails for fails, _ in checks]))
    first = int(bad[0]) if bad.size else None
    return InertialBandReport(
        ok=first is None,
        first_violation=first,
        violated=None if first is None else next(name for fails, name in checks if fails[first]),
        lambda_margin=float(np.min(cap - lam)),
        sigma_margin=float(np.min(strict)),
        monotone_margin=float(np.min(mono)),
    )


# ---------------------------------------------------------------------------
# summability monitor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SummabilityReport:
    partial_sum: float
    tail_increment: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.tail_increment <= self.tolerance


def summability_monitor(
    values: Sequence[float],
    chi: Sequence[float] | None = None,
    tolerance: float = 1e-6,
) -> SummabilityReport:
    """Partial sums of ``chi_n a_n`` with a Cauchy-tail diagnostic.

    PASS when the increment over the last quarter of the horizon stays below
    ``tolerance``; a slowly growing partial sum (e.g. harmonic terms) shows
    up as a fat tail increment.
    """
    a = np.asarray(values, dtype=np.float64)
    if np.any(a < 0.0):
        raise ConfigurationError("summability terms must be nonnegative")
    if chi is not None:
        c = np.asarray(chi, dtype=np.float64)
        if c.size < a.size:
            raise ConfigurationError("chi weights shorter than the series")
        a = a * c[: a.size]
    sums, tail = _partial_sums(a)
    total = float(sums[-1]) if a.size else 0.0
    return SummabilityReport(partial_sum=total, tail_increment=tail, tolerance=tolerance)
