"""Weight arrays, inertia sequences, summability weights, and relaxation caps.

A weight schedule generates the affine-combination rows ``mu_{n, .}`` used to
form the averaged point.  Admissible arrays satisfy four conditions:

  (a) ``sup_n sum_j |mu_{n,j}|`` finite,
  (b) every row sums to 1,
  (c) ``mu_{n,j} -> 0`` as ``n`` grows, for each fixed column ``j``,
  (e) a regularity condition quantified over all perturbed nonnegative
      sequences, witnessed by summability weights ``chi_n``.

Condition (e) is certified analytically per family, never inferred from
data: nonnegative mean-value families carry ``chi_n == 1``; the two-term
inertial family ``mu_{n,n} = 1 + eta_n``, ``mu_{n,n-1} = -eta_n`` carries

    chi_n = sum_{k >= n} exp(zeta_{k,n}),
    zeta_{k,n} = sum_{j=n+1}^{k} (eta_j - 1)   (k > n; zero otherwise),

computed here as a truncated sum plus an analytic tail bound, which makes the
reported value a safe upper estimate.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Callable

import numpy as np

from .errors import (
    CertificateUnavailableError,
    ConfigurationError,
    InvalidScheduleError,
    check_integer,
)
from .space import Vector

#: default truncation horizon for chi sums
CHI_TRUNCATION = 200


# ---------------------------------------------------------------------------
# inertia sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EtaSchedule:
    """Extrapolation coefficients ``eta_n`` with ``eta_0 = 0`` and values in [0, 1).

    Kinds: ``zero``; ``constant`` (eta for n >= 1); ``nesterov`` with
    ``eta_n = (n - 1) / (n + tau)`` for ``n >= 1`` and ``tau >= 2``; and
    ``custom`` (a callable plus a declared supremum, asserted nondecreasing).
    """

    kind: str
    eta: float = 0.0
    tau: float = 2.0
    fn: Callable[[int], float] | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "nesterov", "custom"):
            raise ConfigurationError(f"unknown eta schedule kind {self.kind!r}")
        if self.kind == "constant" and not 0.0 <= self.eta < 1.0:
            raise ConfigurationError(f"constant eta must lie in [0, 1), got {self.eta}")
        if self.kind == "nesterov" and not self.tau >= 2.0:
            raise ConfigurationError(f"nesterov-style schedule needs tau >= 2, got {self.tau}")
        if self.kind == "custom":
            if self.fn is None:
                raise ConfigurationError("custom eta schedule needs a callable")
            if not 0.0 <= self.eta < 1.0:
                raise ConfigurationError("custom eta schedule needs a declared sup in [0, 1)")

    def value(self, n: int) -> float:
        if n <= 0:
            return 0.0
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return self.eta
        if self.kind == "nesterov":
            return (n - 1.0) / (n + self.tau)
        v = float(self.fn(n))
        if not 0.0 <= v < 1.0:
            raise ConfigurationError(f"custom eta value {v} at n={n} outside [0, 1)")
        return v

    def sup(self) -> float:
        """Supremum of the sequence (1.0 for the nesterov form: its limit)."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "nesterov":
            return 1.0
        return self.eta


ZERO_ETA = EtaSchedule(kind="zero")


# ---------------------------------------------------------------------------
# weight families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSchedule:
    """Generator of affine-combination rows for one of the built-in families.

    ``memoryless`` is the Kronecker row {n: 1}; ``window(w)`` averages the
    last ``w`` iterates with equal weight (head rows use all available
    indices); ``cesaro`` averages the full orbit, which has unbounded support
    and is formed by a running mean (see ``orbit_mean``);
    ``inertial`` is the two-term extrapolation row {n: 1+eta_n, n-1: -eta_n}.
    """

    family: str
    window: int = 1
    eta: EtaSchedule | None = None

    def __post_init__(self):
        if self.family not in ("memoryless", "window", "cesaro", "inertial"):
            raise ConfigurationError(f"unknown weight family {self.family!r}")
        if self.family == "window":
            check_integer(self.window, "window width")
            if self.window < 1:
                raise ConfigurationError("window width must be >= 1")
        if self.family == "inertial" and self.eta is None:
            raise ConfigurationError("inertial weights need an eta schedule")

    def row(self, n: int) -> dict[int, float]:
        """Row ``n`` as a dict ``{j: mu_{n,j}}``.

        Its indices lie in ``[0, n]`` and its weights sum to 1 by
        construction, so nothing here checks either.
        """
        if n < 0:
            raise ConfigurationError("row index must be >= 0")
        if self.family == "memoryless":
            return {n: 1.0}
        if self.family == "window":
            w = min(self.window, n + 1)
            return {j: 1.0 / w for j in range(n - w + 1, n + 1)}
        if self.family == "cesaro":
            return {j: 1.0 / (n + 1) for j in range(n + 1)}
        eta_n = self.eta.value(n)
        if eta_n == 0.0:
            return {n: 1.0}
        return {n: 1.0 + eta_n, n - 1: -eta_n}

    @property
    def support_bound(self) -> int | None:
        """Largest row support size, or None for unbounded (full-orbit) support."""
        if self.family == "memoryless":
            return 1
        if self.family == "window":
            return self.window
        if self.family == "inertial":
            return 2
        return None

    @property
    def nonnegative(self) -> bool:
        if self.family == "inertial":
            return self.eta.kind == "zero"
        return True

    def eta_schedule(self) -> EtaSchedule:
        return self.eta if self.family == "inertial" and self.eta is not None else ZERO_ETA

    def mann_product_bound(self) -> float:
        """Lower bound on ``inf_n mu_{n+1,n} * mu_{n+1,n+1}`` (0 when it vanishes)."""
        if self.family == "window" and self.window >= 2:
            return 1.0 / self.window**2
        return 0.0

    def describe(self) -> str:
        if self.family == "window":
            return f"window({self.window})"
        if self.family == "inertial":
            return f"inertial({self.eta.kind})"
        return self.family


def memoryless() -> WeightSchedule:
    return WeightSchedule(family="memoryless")


def window(w: int) -> WeightSchedule:
    return WeightSchedule(family="window", window=w)


def cesaro() -> WeightSchedule:
    return WeightSchedule(family="cesaro")


def inertial(eta: EtaSchedule) -> WeightSchedule:
    return WeightSchedule(family="inertial", eta=eta)


# ---------------------------------------------------------------------------
# averaged-point kernels
# ---------------------------------------------------------------------------

def eta_values(schedule: WeightSchedule, horizon: int) -> array | None:
    """``eta_0 .. eta_{horizon-1}`` of an inertial schedule's rows; None otherwise.

    Each eta_n is computed once, so a custom eta is called once per n; a
    value outside [0, 1) raises InvalidScheduleError.  The values are kept
    as an ``array("d")``, 8 bytes each, since a run's trace holds them.
    """
    if schedule.family != "inertial":
        return None
    try:
        return array("d", [schedule.eta.value(n) for n in range(horizon)])
    except ConfigurationError as exc:
        raise InvalidScheduleError(str(exc)) from exc


def orbit_mean(
    schedule: WeightSchedule, etas: array | None, new_row: Callable[[], Vector]
) -> Callable[[int, Vector], Vector]:
    """The family's kernel ``(n, x_n) -> xbar_n``.

    For rows of more than one point: ``engine.run`` calls no kernel when
    ``support_bound == 1``.  Calls come for ``n = 0, 1, ...`` in order, each
    with the newest orbit point: every kernel keeps only the history its
    rows read.  Where row ``n`` is ``x_n`` alone (window's first row,
    inertial rows with ``eta_n = 0``) the kernel returns ``x_n`` itself, not
    a copy; otherwise it writes ``xbar_n`` into ``new_row()``, a fresh
    writable vector, and returns that.  The inertial kernel keeps
    ``x_{n-1}`` and reads ``etas[n]`` (from ``eta_values``); ``window(w)``
    keeps the last ``w`` points; cesaro keeps a running sum, which it
    divides by ``n + 1``.  The window and inertial kernels perform the
    operations of ``affine_combine(schedule.row(n), orbit)`` in the same
    order, so their results are the same bit for bit.  No kernel tests its
    result for finiteness: a non-finite ``xbar_n`` makes the step's residual
    non-finite, and ``engine.run`` then names the row (window and inertial:
    "affine combination at row n is non-finite") at the same n, after the
    layers have seen that ``xbar_n`` once.
    """
    family = schedule.family
    if family == "window":
        recent: deque[Vector] = deque(maxlen=schedule.window)

        def window_mean(n, x):
            recent.append(x)
            k = len(recent)
            if k == 1:
                return x
            weight = 1.0 / k
            acc = weight * recent[0]
            for y in islice(recent, 1, k - 1):
                acc = acc + weight * y
            return np.add(acc, weight * recent[-1], new_row())

        return window_mean

    if family == "cesaro":
        total = None

        def running_mean(n, x):
            nonlocal total
            total = x if n == 0 else total + x
            return np.divide(total, n + 1.0, new_row())

        return running_mean

    prev = None

    def extrapolate(n, x):
        nonlocal prev
        x_prev, prev = prev, x
        eta_n = etas[n]
        if eta_n == 0.0:
            return x
        return np.add((-eta_n) * x_prev, (1.0 + eta_n) * x, new_row())

    return extrapolate


def abs_weighted_sums(
    schedule: WeightSchedule, dists: np.ndarray, etas: array | None
) -> np.ndarray:
    """``sum_j |mu_{n,j}| d_j`` for each ``n < N``, without building a row.

    ``dists`` holds ``d_0 .. d_N`` (all ``d_j >= 0``); ``etas`` comes from
    ``eta_values``.  Memoryless rows give ``d_n``;
    inertial rows ``(1 + eta_n) d_n + eta_n d_{n-1}`` (``d_n`` when
    ``eta_n = 0``), formed by array operations over the rows with
    ``eta_n != 0`` (elementwise, so the same IEEE operations as one row at a
    time); window rows ``fsum`` their ``k`` distances times
    ``1/k``, in O(k).  These three equal
    ``math.fsum(abs(w) * d[j] for j, w in schedule.row(n).items())`` bit for
    bit: the products are the same IEEE multiplies, ``fsum`` is correctly
    rounded in any order, and a two-term ``fsum`` is one correctly rounded
    addition.  Cesaro rows take one O(N) pass instead of N row sums: a
    compensated (Neumaier) running sum ``S_n`` of ``d_0 .. d_n``, times
    ``1/(n+1)``.  Against the row ``fsum`` that is at most four roundings
    of half an ulp, so within about ``2 eps`` relative, plus one smallest
    subnormal per term where the products underflow.
    """
    family = schedule.family
    sums = dists[:-1].copy()
    if family == "memoryless":
        return sums
    if family == "inertial":
        eta = np.frombuffer(etas)[: sums.size]
        at = np.flatnonzero(eta != 0.0)
        eta = eta[at]
        sums[at] = (1.0 + eta) * dists[at] + eta * dists[at - 1]
        return sums
    if family == "cesaro":
        s = c = 0.0
        for n, x in enumerate(sums.tolist()):
            t = s + x
            # Neumaier: s and x are nonnegative, so compare them directly
            c += (s - t) + x if s >= x else (x - t) + s
            s = t
            sums[n] = s + c
        return sums * (1.0 / np.arange(1.0, sums.size + 1.0))
    w = schedule.window
    for n in range(sums.size):
        k = min(w, n + 1)
        sums[n] = math.fsum((dists[n + 1 - k : n + 1] * (1.0 / k)).tolist())
    return sums


# ---------------------------------------------------------------------------
# chi: summability weights with tail bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChiEntry:
    n: int
    value: float            # truncated sum + tail bound (safe upper estimate)
    analytic_bound: float | None


def chi_value(schedule: WeightSchedule, n: int, truncation: int = CHI_TRUNCATION) -> ChiEntry:
    """Upper estimate of ``chi_n`` for the schedule's inertia sequence.

    Nonnegative families are treated as ``eta == 0``.  The truncated sum runs
    over ``k = n .. n+K``; the tail is bounded geometrically via
    ``sup eta < 1`` for bounded sequences, and via the cubic decay of
    ``exp(zeta)`` for the nesterov form (whose running sup tends to 1).
    """
    check_integer(n, "chi index")
    if n < 0:
        raise ConfigurationError(f"chi index must be >= 0, got {n}")
    check_integer(truncation, "chi truncation")
    if truncation < 1:
        raise ConfigurationError("chi truncation must be >= 1")
    eta = schedule.eta_schedule()
    zeta = 0.0
    total = 1.0  # k == n term, exp(0)
    for k in range(n + 1, n + truncation + 1):
        zeta += eta.value(k) - 1.0
        total += math.exp(zeta)
    if eta.kind == "nesterov":
        # exp(zeta_{k,n}) decays like ((n+K+tau+1)/(k+tau+1))^(1+tau) past the cutoff
        tail = math.exp(zeta) * (n + truncation + eta.tau + 1.0) / eta.tau
        bound = (n + 7.0) / 2.0
    else:
        sup = eta.sup()
        if sup >= 1.0:
            raise CertificateUnavailableError(
                "sup eta >= 1: no usable summability certificate"
            )
        q = math.exp(sup - 1.0)
        tail = math.exp(zeta) * q / (1.0 - q)
        bound = math.e / (1.0 - sup)
    return ChiEntry(n=n, value=total + tail, analytic_bound=bound)


def chi_table(schedule: WeightSchedule, horizon: int, truncation: int = CHI_TRUNCATION) -> list[ChiEntry]:
    check_integer(horizon, "chi horizon")
    if horizon < 0:
        raise ConfigurationError(f"chi horizon must be >= 0, got {horizon}")
    return [chi_value(schedule, n, truncation) for n in range(horizon + 1)]


# ---------------------------------------------------------------------------
# weight validation
# ---------------------------------------------------------------------------

#: iteration index at which the regularity transform of 1 + 1/(n+1) is probed
TOEPLITZ_PROBE = 10_000
TOEPLITZ_TOL = 1e-3


@dataclass(frozen=True)
class WeightValidationReport:
    schedule: str
    sup_abs_row_sum: float
    max_row_sum_deviation: float
    decay_status: str            # "exact-zero", "analytic", or "checked"
    chi_certificate: str
    chi_sup: float | None
    toeplitz_index: int
    toeplitz_deviation: float

    @property
    def ok(self) -> bool:
        return (
            math.isfinite(self.sup_abs_row_sum)
            and self.max_row_sum_deviation <= 1e-12
            and self.decay_status != "failed"
            and self.toeplitz_deviation <= TOEPLITZ_TOL
        )


def _toeplitz_transform(row: dict[int, float]) -> float:
    # transform of the probe sequence 1 + 1/(j+1), which converges to 1
    return math.fsum(w * (1.0 + 1.0 / (j + 1.0)) for j, w in row.items())


def _row_sums(schedule: WeightSchedule, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``fsum`` of rows ``0 .. horizon`` and of their absolute values, bit for bit.

    An inertial row's two-term ``fsum`` is one rounded addition of ``1 + eta_n``
    and ``-eta_n`` (``+eta_n`` for the absolute sum).  The other rows hold ``k``
    weights ``1/k``, whose ``fsum`` is the rounded product ``k * (1/k)``.
    """
    etas = eta_values(schedule, horizon + 1)
    if etas is not None:
        eta = np.asarray(etas)
        head = 1.0 + eta
        return head - eta, head + eta
    k = np.arange(1.0, horizon + 2.0)
    if schedule.family != "cesaro":
        k = np.minimum(k, schedule.support_bound)
    sums = k * (1.0 / k)
    return sums, sums


def _explicit_row(n: int, entries) -> dict[int, float]:
    """Caller-supplied row ``n`` as a dict, with its indices and unit sum checked."""
    row = dict(entries)
    for j in row:
        if not 0 <= j <= n:
            raise InvalidScheduleError(
                f"row {n}: row {n} touches orbit index {j} outside [0, {n}]"
            )
    s = math.fsum(row.values())
    if abs(s - 1.0) > 1e-12:
        raise InvalidScheduleError(
            f"row {n}: row {n} weights sum to {s!r}, expected 1 within 1e-12"
        )
    return row


def validate_weights(schedule, horizon: int) -> WeightValidationReport:
    """Check the row conditions over a horizon and report the (e) certificate.

    ``schedule`` is a WeightSchedule or, for ad-hoc arrays, an explicit
    sequence of rows given as mappings ``{j: mu_{n,j}}``.  A family's rows
    ``n = 0 .. horizon`` are all checked in closed form (``_row_sums``), and
    no row is built but the Toeplitz probe; a custom eta outside [0, 1) at any
    such ``n`` raises InvalidScheduleError.  Explicit rows are checked entry
    by entry: an index outside ``[0, n]`` or a row sum off 1 by more than
    1e-12 raises InvalidScheduleError.  Everything else is reported.  The
    regularity certificate (e) comes from the family's analytic argument,
    never from data; explicit row sets get no certificate.
    """
    check_integer(horizon, "validation horizon")
    if horizon < 1:
        raise ConfigurationError("validation horizon must be >= 1")

    if isinstance(schedule, WeightSchedule):
        name = schedule.describe()
        sums, abs_sums = _row_sums(schedule, horizon)
        decay = "exact-zero" if schedule.support_bound is not None else "analytic"
        if schedule.nonnegative:
            chi_cert, chi_sup = "constant chi = 1 (nonnegative mean-value family)", 1.0
        else:
            eta = schedule.eta_schedule()
            if eta.kind != "nesterov" and eta.sup() >= 1.0:
                raise InvalidScheduleError("inertial weights need sup eta < 1 or the nesterov form")
            probe = [chi_value(schedule, n).value for n in (0, 1, 10, horizon)]
            chi_sup = max(probe)
            chi_cert = (
                "two-term extrapolation family: computed chi "
                f"(upper estimates {chi_sup:.6g} over probed indexes)"
            )
        try:
            toeplitz_row, t_idx = schedule.row(TOEPLITZ_PROBE), TOEPLITZ_PROBE
        except ConfigurationError as exc:
            raise InvalidScheduleError(str(exc)) from exc
    else:
        name = "explicit rows"
        rows = [_explicit_row(n, entries) for n, entries in enumerate(schedule)]
        if not rows:
            raise InvalidScheduleError("no rows supplied")
        sums = np.array([math.fsum(r.values()) for r in rows])
        abs_sums = np.array([math.fsum(map(abs, r.values())) for r in rows])
        last = len(rows) - 1
        max_tail = max(abs(rows[last].get(j, 0.0)) for j in range(last // 2 + 1))
        decay = "checked" if max_tail < 1e-6 else "failed"
        chi_cert, chi_sup = "none (explicit rows carry no analytic certificate)", None
        toeplitz_row, t_idx = rows[last], last

    return WeightValidationReport(
        schedule=name,
        sup_abs_row_sum=float(abs_sums.max()),
        max_row_sum_deviation=float(np.abs(sums - 1.0).max()),
        decay_status=decay,
        chi_certificate=chi_cert,
        chi_sup=chi_sup,
        toeplitz_index=t_idx,
        toeplitz_deviation=abs(_toeplitz_transform(toeplitz_row) - 1.0),
    )


# ---------------------------------------------------------------------------
# relaxation schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelaxationSchedule:
    """Relaxation parameters ``lambda_n``, always capped by ``1/phi_n``.

    Policies:

    - ``constant``: a fixed requested value, rejected whenever it exceeds the
      ``1/phi_n`` cap.
    - ``fb_band``: values in ``[eps, eps + (1 - eps) / phi_n]``; a requested
      value defaults to the band's upper end.  For forward-backward steps
      ``phi_n = 2 / (4 - gamma_n / beta)``, so the top is
      ``1 + (1 - eps)(1 - gamma_n / (2 beta))``, and ``2 - eps`` for the
      proximal point (``phi = 1/2``, the limit ``beta = +inf``).
    """

    policy: str
    value: float | Callable[[int], float] | None = None
    epsilon: float = 0.0

    def __post_init__(self):
        if self.policy not in ("constant", "fb_band"):
            raise ConfigurationError(f"unknown relaxation policy {self.policy!r}")
        if self.policy == "constant" and self.value is None:
            raise ConfigurationError("constant relaxation needs a value")
        if self.policy != "constant" and not 0.0 < self.epsilon < 1.0:
            raise ConfigurationError("relaxation epsilon must lie in (0, 1)")

    def _requested(self, n: int) -> float | None:
        if self.value is None:
            return None
        return float(self.value(n)) if callable(self.value) else float(self.value)


def constant_relaxation(lam: float) -> RelaxationSchedule:
    return RelaxationSchedule(policy="constant", value=lam)


def relaxation_at(rs: RelaxationSchedule, n: int, phi_n: float) -> float:
    """The relaxation value at iteration ``n`` for composite constant ``phi_n``.

    Raises ConfigurationError, naming the violated bound, when the requested
    value escapes the policy band or the hard ``1/phi_n`` cap.
    """
    if not 0.0 < phi_n <= 1.0:
        raise ConfigurationError(f"phi must lie in (0, 1], got {phi_n}")
    hard_cap = 1.0 / phi_n
    if rs.policy == "constant":
        lam = rs._requested(n)
    else:  # fb_band
        cap = rs.epsilon + (1.0 - rs.epsilon) / phi_n
        lam = rs._requested(n)
        if lam is None:
            lam = cap
        if not lam >= rs.epsilon:
            raise ConfigurationError(
                f"lambda_{n} = {lam} below the band floor eps = {rs.epsilon}"
            )
        if not lam <= cap + 1e-12:
            raise ConfigurationError(
                f"lambda_{n} = {lam} exceeds the band cap 1+(1-eps)(1-gamma/(2 beta)) = {cap}"
            )
    if lam is None or not lam > 0.0:
        raise ConfigurationError(f"lambda_{n} must be positive, got {lam}")
    if not lam <= hard_cap + 1e-12:
        raise ConfigurationError(
            f"lambda_{n} = {lam} exceeds the relaxation cap 1/phi_n = {hard_cap}"
        )
    return lam
