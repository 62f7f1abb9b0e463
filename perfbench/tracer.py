"""Span recorder that wraps named functions of the affiter package.

A ``Target`` names a function or method by the object it is looked up on.
While a ``Tracer`` is active, every binding of that function in the affiter
modules (the defining module, every ``from .x import f`` copy and the
package namespace) is replaced by a wrapper that records one span per call:
``(name, start_ns, end_ns, parent_index)``.  Spans stay in memory until
``summarize`` folds them into per-name call counts, inclusive times and self
times; a span's self time is its duration minus that of its direct children.
Leaving the ``with`` block puts every original binding back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

SOLVE_SPAN = "solvers.solve"


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    ``span`` is the reported name; its first dotted part is the layer (the
    affiter module) that the span's self time is attributed to.  ``owner`` is
    a module or class holding the callable under ``attr``; for a class, only
    the class attribute is replaced.  ``meter``, if
    given, is called as ``meter(tracer, args, result)`` after each call to
    add counters that need the arguments or the result.
    """

    span: str
    owner: object
    attr: str
    meter: Callable | None = None


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        name, meter = target.span, target.meter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if meter is not None:
                meter(self, args, result)
            return result

        return traced

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "affiter" or key.startswith("affiter.")]
        try:
            for target in self.targets:
                original = getattr(target.owner, target.attr)
                wrapper = self._wrap(target, original)
                if isinstance(target.owner, type):
                    owners = [(target.owner, target.attr)]
                else:
                    owners = [(m, key) for m in modules
                              for key, value in list(vars(m).items()) if value is original]
                for owner, key in owners:
                    self._saved.append((owner, key, getattr(owner, key)))
                    setattr(owner, key, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    def take(self):
        """Return the recorded spans and counters and start afresh."""
        spans, counts = self.spans[:], self.counts.copy()
        self.spans.clear()
        self.counts.clear()
        return spans, counts


@dataclass
class SpanSummary:
    calls: Counter
    inclusive_ns: Counter
    self_ns: Counter
    calls_in_solve: Counter

    def inclusive_s(self, name: str) -> float:
        return self.inclusive_ns[name] * 1e-9

    def layer_self_s(self, layer: str) -> float:
        return sum(ns for name, ns in self.self_ns.items()
                   if name.split(".", 1)[0] == layer) * 1e-9


def summarize(spans) -> SpanSummary:
    """Fold spans into per-name counts and times.

    Spans are stored in start order, so a parent always precedes its
    children; ``calls_in_solve`` counts the calls made under a
    ``SolverPreset.solve`` span.
    """
    child_ns = [0] * len(spans)
    in_solve = [False] * len(spans)
    calls, incl, self_ns, solve_calls = Counter(), Counter(), Counter(), Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            in_solve[i] = in_solve[parent] or spans[parent][0] == SOLVE_SPAN
    for i, (name, start, end, _parent) in enumerate(spans):
        calls[name] += 1
        incl[name] += end - start
        self_ns[name] += end - start - child_ns[i]
        if in_solve[i]:
            solve_calls[name] += 1
    return SpanSummary(calls, incl, self_ns, solve_calls)
