"""Finite-dimensional real inner-product space primitives.

Points are plain 1-D float64 numpy arrays.  A weight row is a plain dict
``{j: mu_{n,j}}`` over orbit indices; ``affine_combine`` forms the averaged
point ``xbar_n = sum_j mu_{n,j} x_j`` from it.  The run forms ``xbar_n``
with the weight family's own kernel (``schedules.orbit_mean``);
``affine_combine`` is the reference those kernels are tested against.
A run keeps its orbit in ``Rows``, equal-length points packed in 2-D blocks,
and ``row_distances`` measures a block of them against one point at a time.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterator, Mapping

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


def _row_squares(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``[r.dot(r) for r in rows]`` of a 2-D float64 array, bit for bit.

    One stacked ``matmul`` of ``(1, d)`` by ``(d, 1)`` per row calls the same
    ``ddot`` as ``x.dot(x)``; ``einsum`` and ``(rows * rows).sum(1)`` reduce
    in other orders, so their last bits can differ.  ``out``, a contiguous
    1-D float64 array of one entry per row, receives the squares.
    """
    shape = (len(rows), 1, 1)
    squares = np.matmul(rows[:, None, :], rows[:, :, None],
                        out=None if out is None else out.reshape(shape))
    return squares.ravel()


def row_distances(rows: np.ndarray, point: Vector, out: np.ndarray) -> None:
    """``out[k] = norm(rows[k] - point)`` for each row of a 2-D float64 array.

    Bit for bit ``norm``: the same subtraction, the same ``ddot`` per row
    (``_row_squares``) and IEEE's square root, written into ``out`` (a
    contiguous 1-D float64 array of one entry per row).  The scratch has the
    shape of ``rows``, one block of ``Rows`` at most.  A distance that
    overflows warns "overflow encountered in matmul" (or "in subtract"),
    where ``norm`` warns "in dot".
    """
    # rows minus copies of the point: operands of one shape take numpy's
    # plain loop, where broadcasting would build an iterator (1.6 KB)
    diff = np.empty(rows.shape)
    diff[...] = point
    np.subtract(rows, diff, out=diff)
    _row_squares(diff, out)
    np.sqrt(out, out=out)


#: floats per block of ``Rows`` (512 KiB); a longer row is kept as its own array
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
    ``append(x)`` copies ``x`` into the next row; ``new_row()`` returns the
    next row as a writable 1-D view for the caller to fill (with a ufunc's
    ``out``, say).  A point of ``BLOCK_FLOATS`` floats or more is a block of
    its own: ``append`` keeps a view of ``x``, with no copy.  ``rows[i]``
    (negative ``i`` too) and iteration give 1-D views into the blocks, a
    slice gives a list of them, ``blocks()`` gives the filled part of each
    block, and ``distances(point, out)`` measures the rows against a point.
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
        pos = self._pos
        if pos == self._end:
            if self.dim >= BLOCK_FLOATS:
                # a view of x whenever x is a float64 vector
                self._add_block(np.asarray(x, dtype=np.float64).reshape(1, self.dim))
                self._pos = 1
                return
            self._add_block(None)
            pos = 0
        self._block[pos] = x
        self._pos = pos + 1

    def new_row(self) -> Vector:
        pos = self._pos
        if pos == self._end:
            self._add_block(None)
            pos = 0
        self._pos = pos + 1
        return self._block[pos]

    def _add_block(self, block: np.ndarray | None) -> None:
        """Open ``block``, or a new empty one when it is None."""
        size = len(self)
        if block is None:
            first = FIRST_BLOCK_FLOATS // self.dim
            rows = min(max(1, first, size), self._max_rows, self._capacity - size)
            if rows < 1:
                raise IndexError(f"Rows holds at most {self._capacity} points")
            block = np.empty((rows, self.dim))
        elif size >= self._capacity:
            raise IndexError(f"Rows holds at most {self._capacity} points")
        self._blocks.append(block)
        self._starts.append(size)
        self._block, self._pos, self._end = block, 0, len(block)

    def __len__(self) -> int:
        return self._starts[-1] + self._pos if self._starts else 0

    def head(self, n: int) -> "Rows":
        """The first ``n`` rows, sharing this container's blocks; it takes no appends."""
        if not 0 <= n <= len(self):
            raise IndexError(f"head({n}) of {len(self)} rows")
        out = Rows(self.dim, n)
        count = bisect_right(self._starts, n - 1) if n else 0
        out._blocks, out._starts = self._blocks[:count], self._starts[:count]
        if count:
            out._block = out._blocks[-1]
            out._pos = out._end = n - out._starts[-1]
        return out

    def blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """``(start, block)`` for each block: the index of its first row and
        its filled rows, as one 2-D array."""
        last = len(self._blocks) - 1
        for k, (start, block) in enumerate(zip(self._starts, self._blocks)):
            yield start, block[: self._pos] if k == last else block

    def distances(self, point: Vector, out: np.ndarray) -> None:
        """``out[k] = norm(self[k] - point)`` for the first ``len(out)`` rows,
        by ``row_distances`` over each block."""
        size = len(out)
        for start, block in zip(self._starts, self._blocks):
            if start >= size:
                break
            rows = block[: size - start]
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
