"""Finite-dimensional real inner-product space primitives.

Points are plain 1-D float64 numpy arrays.  A weight row is a plain dict
``{j: mu_{n,j}}`` over orbit indices; ``affine_combine`` forms the averaged
point ``xbar_n = sum_j mu_{n,j} x_j`` from it.  The run forms ``xbar_n``
with the weight family's own kernel (``schedules.orbit_mean``), and a trace
forms it again from the orbit, a block at a time (``orbit_mean_blocks``);
``affine_combine`` is the reference those kernels are tested against.
A run keeps its orbit in ``Rows``, equal-length points packed in 2-D blocks,
and ``row_distances`` measures a block of them against one point at a time.
Every inner product of the package is summed here (``dot``, ``norm``,
``row_distances``, ``matvec``) in ``np.add.reduce(np.multiply(u, v))``'s
order, which no BLAS kernel or SIMD level changes: pinned floats hold on
every host.  Host-dependent are only ``all_finite``'s ``np.vdot``, which
picks a branch, and the dense resolvent's LAPACK solve (``operators``).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from functools import reduce
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ConfigurationError, NumericalDivergence

Vector = np.ndarray

def as_vector(x, dim: int | None = None) -> Vector:
    """Coerce ``x`` to a finite float64 1-D array; scalars become length 1.

    A 1-D float64 ndarray comes back as the same object.
    """
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    elif v.ndim != 1 or not v.size:
        raise ConfigurationError(f"expected a 1-D point, got shape {v.shape}")
    if not all_finite(v):
        raise ConfigurationError("point has non-finite coordinates")
    if dim is not None and v.size != dim:
        raise ConfigurationError(f"expected dimension {dim}, got {v.size}")
    return v


def check_same_dim(p: Vector, q: Vector) -> None:
    if np.shape(p) != np.shape(q):
        raise ConfigurationError(
            f"dimension mismatch: {np.shape(p)} vs {np.shape(q)}"
        )


def in_order_sum(values) -> float:
    """``((0.0 + v_1) + v_2) + ...``, as builtin ``sum`` adds floats up to
    CPython 3.11; 3.12 compensates (``sum([1e16, 1.0, 1.0])`` is 1e16 + 2)."""
    return reduce(operator.add, values, 0.0)


#: ``add.reduce`` adds fewer terms than this in order, then pairwise
PAIRWISE_FROM = 8


def dot(u: Vector, v: Vector) -> float:
    """``float(np.add.reduce(np.multiply(u, v)))`` of 1-D float64 arrays of
    one shape, bit for bit; a short one is summed in Python, more cheaply.
    A sum that is not finite is taken by numpy, so an overflow raises its
    event ("overflow encountered in multiply", or "in reduce")."""
    if v is not u and u.shape != v.shape:
        check_same_dim(u, v)
    if len(u) < PAIRWISE_FROM:
        left = u.tolist()
        s = 0.0
        for a, b in zip(left, left if v is u else v.tolist()):
            s += a * b
        if s - s == 0.0:  # finite
            return s
    return float(np.add.reduce(np.multiply(u, v)))


def norm(x: Vector) -> float:
    """Euclidean norm of a 1-D float64 array, ``math.sqrt(dot(x, x))``."""
    return math.sqrt(dot(x, x))


def matvec(m: np.ndarray, x: Vector) -> Vector:
    """``m @ x`` for a 2-D float64 ``m``, entry ``i`` bit for bit
    ``dot(m[i], x)``, through a transient of ``m.size`` floats."""
    if m.shape[1:] != x.shape:
        check_same_dim(m[0], x)
    return np.add.reduce(np.multiply(m, x), axis=1)


def all_finite(x: Vector) -> bool:
    """``np.all(np.isfinite(x))`` for a 1-D float64 array.

    The sum of squares is finite only when every entry is; when it is not,
    the entries are tested one by one, since the sum can overflow.
    ``np.vdot`` raises no floating-point event on that overflow, which the
    run's log would record among the trace's flags.
    """
    return math.isfinite(np.vdot(x, x)) or bool(np.all(np.isfinite(x)))


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


def row_distances(rows: np.ndarray, point: Vector, out: np.ndarray) -> None:
    """``out[k] = norm(rows[k] - point)`` for each row of a 2-D float64 array.

    Bit for bit ``norm``, with its warnings: the same subtraction, squares,
    ``add.reduce`` per row and square root, written into ``out`` (a
    contiguous 1-D float64 array of one entry per row).  The scratch has the
    shape of ``rows``, one block of ``Rows`` at most.
    """
    # rows minus copies of the point: operands of one shape take numpy's
    # plain loop, where broadcasting would build an iterator (1.6 KB)
    diff = np.empty(rows.shape)
    diff[...] = point
    np.subtract(rows, diff, out=diff)
    np.multiply(diff, diff, out=diff)
    np.add.reduce(diff, axis=1, out=out)
    np.sqrt(out, out=out)


#: floats per block of ``Rows`` (512 KiB); a longer row is a block of its own
BLOCK_FLOATS = 1 << 16
#: floats in the first block of ``Rows`` (8 KiB): opening a block, and
#: certifying one, costs a few microseconds
FIRST_BLOCK_FLOATS = 1 << 10


class Rows:
    """Up to ``capacity`` points of dimension ``dim``, packed in float64 blocks.

    Blocks are 2-D arrays of at most ``BLOCK_FLOATS`` floats.  The first
    holds ``FIRST_BLOCK_FLOATS`` floats (at least one row), each next one as
    many rows as all before it, and all together never more than
    ``capacity`` rows: a sequence that stops short reserves at most twice
    the rows it holds, or its first block.
    ``new_row()`` returns the next row as a writable 1-D view for the caller
    to fill (with a ufunc's ``out``, say), and ``append(x)`` copies ``x``
    into it, so no row shares memory with a caller's array; an ``x`` that
    numpy cannot assign to a row leaves the rows as they were.  A point of
    ``BLOCK_FLOATS`` floats or more is a block of one row.  ``rows[i]``
    (negative ``i`` too) and iteration give 1-D views into the blocks, a
    slice gives a list of them, ``blocks(stop)`` gives the filled part of
    each block up to a row, ``of_blocks`` wraps such blocks again, and
    ``distances(point, out)`` measures the rows against a point.
    """

    __slots__ = ("dim", "_capacity", "_max_rows", "_blocks", "_starts", "_block", "_pos", "_end")

    def __init__(self, dim: int, capacity: int):
        self.dim = dim
        self._capacity = capacity
        self._max_rows = max(1, BLOCK_FLOATS // dim)
        self._blocks: list[np.ndarray] = []
        self._starts: list[int] = []  # the index of each block's first row
        self._block = None  # the newest block, filled up to row _pos of _end
        self._pos = self._end = 0

    def append(self, x: Vector) -> None:
        row = self.new_row()
        try:
            row[...] = x
        except BaseException:
            self._pos -= 1  # numpy rejected x: the row was not appended
            raise

    def new_row(self) -> Vector:
        pos = self._pos
        if pos == self._end:  # open a block
            size = len(self)
            first = FIRST_BLOCK_FLOATS // self.dim
            rows = min(max(1, first, size), self._max_rows, self._capacity - size)
            if rows < 1:
                raise IndexError(f"Rows holds at most {self._capacity} points")
            self._block, pos, self._end = np.empty((rows, self.dim)), 0, rows
            self._blocks.append(self._block)
            self._starts.append(size)
        self._pos = pos + 1
        return self._block[pos]

    def __len__(self) -> int:
        return self._starts[-1] + self._pos if self._starts else 0

    @classmethod
    def of_blocks(cls, dim: int, blocks: Iterable[tuple[int, np.ndarray]]) -> "Rows":
        """Rows over the ``(start, block)`` pairs of ``blocks()`` or
        ``schedules.orbit_mean_blocks``, each block kept as it is; it is
        full, so it takes no appends."""
        out = cls(dim, 0)
        for start, block in blocks:
            out._blocks.append(block)
            out._starts.append(start)
            out._block, out._pos, out._end = block, len(block), len(block)
        out._capacity = len(out)
        return out

    def blocks(self, stop: int | None = None) -> list[tuple[int, np.ndarray]]:
        """``(start, block)`` for each block: the index of its first row and
        its filled rows before row ``stop`` (all of them when None), as one
        2-D array."""
        stop = len(self) if stop is None else stop
        return [(start, block[: stop - start])
                for start, block in zip(self._starts, self._blocks) if start < stop]

    def distances(self, point: Vector, out: np.ndarray) -> None:
        """``out[k] = norm(self[k] - point)`` for the first ``len(out)`` rows,
        by ``row_distances`` over each block."""
        for start, rows in self.blocks(len(out)):
            row_distances(rows, point, out[start : start + len(rows)])

    def __iter__(self) -> Iterator[Vector]:
        for _start, block in self.blocks():
            yield from block

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        size = len(self)
        k = i + size if i < 0 else i
        if not 0 <= k < size:
            raise IndexError(f"row {i} of {size}")
        b = bisect_right(self._starts, k) - 1
        return self._blocks[b][k - self._starts[b]]
