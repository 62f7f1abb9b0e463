"""Finite-dimensional real inner-product space primitives.

Points are plain 1-D float64 numpy arrays.  A weight row is a plain dict
``{j: mu_{n,j}}`` over orbit indices; ``affine_combine`` forms the averaged
point ``xbar_n = sum_j mu_{n,j} x_j`` from it.  The run forms ``xbar_n``
with the weight family's own kernel (``schedules.orbit_mean``);
``affine_combine`` is the reference those kernels are tested against.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, NumericalDivergence

Vector = np.ndarray

def as_vector(x, dim: int | None = None) -> Vector:
    """Coerce ``x`` to a finite float64 1-D array; scalars become length 1."""
    v = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if v.ndim != 1 or v.size < 1:
        raise ConfigurationError(f"expected a 1-D point, got shape {np.shape(x)}")
    if not np.all(np.isfinite(v)):
        raise ConfigurationError("point has non-finite coordinates")
    if dim is not None and v.size != dim:
        raise ConfigurationError(f"expected dimension {dim}, got {v.size}")
    return v


def check_same_dim(p: Vector, q: Vector) -> None:
    if np.shape(p) != np.shape(q):
        raise ConfigurationError(
            f"dimension mismatch: {np.shape(p)} vs {np.shape(q)}"
        )


def norm(x: Vector) -> float:
    """Euclidean norm of a 1-D float64 array.

    Bit for bit ``float(np.linalg.norm(x))``, which also takes the correctly
    rounded square root of ``x.dot(x)``, without its dispatch overhead.
    """
    return math.sqrt(x.dot(x))


def all_finite(x: Vector) -> bool:
    """``np.all(np.isfinite(x))`` for a 1-D float64 array.

    The sum of squares is finite only when every entry is; when it is not,
    the entries are tested one by one, since the sum can overflow.
    ``np.vdot`` raises no floating-point warning on that overflow, which
    ``run`` would record among the trace's flags.
    """
    return math.isfinite(np.vdot(x, x)) or bool(np.all(np.isfinite(x)))


def norm_dist(p: Vector, q: Vector) -> float:
    """Euclidean distance ``||p - q||``; zero iff the points are equal."""
    check_same_dim(p, q)
    return float(np.linalg.norm(np.asarray(p, dtype=np.float64) - q))


def _orbit_get(orbit, j: int) -> Vector:
    try:
        return orbit[j]
    except (KeyError, IndexError) as exc:
        raise ConfigurationError(f"orbit index {j} is not available") from exc


def affine_combine(row: Mapping[int, float], orbit) -> Vector:
    """Weighted sum ``sum_j mu_j x_j`` of orbit points for a row ``{j: mu_j}``.

    ``orbit`` is anything indexable by the row's indices (a dict or a list).
    A Kronecker row ``{n: 1.0}`` returns a bit-exact copy of ``orbit[n]``;
    general rows accumulate terms in increasing index order so results are
    reproducible.
    """
    items = sorted(row.items())
    if not items:
        raise ConfigurationError("affine combination of an empty row")
    if len(items) == 1 and items[0][1] == 1.0:
        return _orbit_get(orbit, items[0][0]).copy()
    acc = None
    for j, w in items:
        x = _orbit_get(orbit, j)
        term = w * x
        acc = term if acc is None else acc + term
    if not np.all(np.isfinite(acc)):
        n = items[-1][0]
        raise NumericalDivergence(f"affine combination at row {n} is non-finite", iteration=n)
    return acc
