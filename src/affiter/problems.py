"""Desk-scale test problems with exact or oracle-verified reference solutions.

Each problem packages the operator/function ingredients a solver preset
needs, a reference solution with its provenance, and the oracles that
``brute_oracle`` and the tests use: an objective and, for the constrained
problems, a feasible-set membership predicate with a 1e-12 slack.
Reference values tagged grid-oracle are confirmed by ``brute_oracle`` at
test time, never at solve time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .operators import (
    affine_monotone,
    l1_subdifferential,
    linear_operator,
    projector,
    soft_threshold,
)
from .space import Vector, as_vector, dot, norm


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    dim: int
    reference: Vector | None
    provenance: str                     # "closed-form", "grid-oracle", "bisection-oracle"
    objective: Callable[[Vector], float] | None = None
    feasible: Callable[[Vector], bool] | None = None
    ingredients: dict = field(default_factory=dict)
    theta: float | None = None
    beta: float | None = None
    notes: str = ""


#: slack of the feasible-set membership predicates
MEMBER_TOL = 1e-12


def _in_halfspace(normal, offset: float) -> Callable[[Vector], bool]:
    """Membership in ``{x : <normal, x> <= offset}``."""
    a = as_vector(normal)
    return lambda x: dot(a, x) <= offset + MEMBER_TOL


def _in_ball(center, radius: float) -> Callable[[Vector], bool]:
    c = as_vector(center)
    return lambda x: norm(x - c) <= radius + MEMBER_TOL


#: the params each catalog problem reads
PROBLEM_PARAMS = {
    "l1_quadratic": ("a",),
    "rotation_fixed_point": ("angle",),
    "feasibility": ("x0",),
    "polyak_norm_over_halfspace": (),
}


def catalog(name: str, **params) -> ProblemSpec:
    """Build a named problem.

    Names: ``l1_quadratic`` (min ||x||_1 + 1/2 ||x - a||^2, coordinatewise
    soft-threshold solution), ``rotation_fixed_point`` (planar rotation, fixed
    point at the origin), ``feasibility`` (halfspace and ball with interior
    intersection), ``polyak_norm_over_halfspace`` (min ||x|| over {x_1 >= 1}).
    A param the problem does not read (see ``PROBLEM_PARAMS``) is a
    ConfigurationError.
    """
    if name in PROBLEM_PARAMS:
        unknown = [key for key in params if key not in PROBLEM_PARAMS[name]]
        if unknown:
            raise ConfigurationError(f"unknown {name} params: {', '.join(map(repr, unknown))}")
    if name == "l1_quadratic":
        a = as_vector(params.get("a", 2.0))
        ref = soft_threshold(a, 1.0)

        def objective(x):
            return float(np.sum(np.abs(x)) + 0.5 * np.sum((x - a) ** 2))

        return ProblemSpec(
            name=name,
            dim=a.size,
            reference=ref,
            provenance="closed-form",
            objective=objective,
            ingredients={
                "A": l1_subdifferential(),
                "B": affine_monotone(1.0, -a),
                "grad": lambda x: x - a,
            },
            beta=1.0,
            notes="solution is the unit soft threshold of a",
        )

    if name == "rotation_fixed_point":
        angle = float(params.get("angle", np.pi / 2))
        if not angle % (2 * np.pi) > 0.0:  # NaN and inf fail it too
            raise ConfigurationError("rotation angle must be nonzero for a unique fixed point")
        c, s = np.cos(angle), np.sin(angle)
        rot = linear_operator([[c, -s], [s, c]], alpha=1.0)
        return ProblemSpec(
            name=name,
            dim=2,
            reference=np.zeros(2),
            provenance="closed-form",
            ingredients={"T": rot},
            notes="linear isometry; the only fixed point is the origin",
        )

    if name == "feasibility":
        # halfspace {x_1 >= 1} meets ball(center=(2,0), r=1.5) with interior
        half = projector("halfspace", normal=[-1.0, 0.0], offset=-1.0)
        ball = projector("ball", center=[2.0, 0.0], radius=1.5)
        in_half = _in_halfspace([-1.0, 0.0], -1.0)
        in_ball = _in_ball([2.0, 0.0], 1.5)
        ref = as_vector([2.0, 0.0])

        def infeasibility(x):
            d_half = max(0.0, 1.0 - x[0])
            d_ball = max(0.0, norm(x - np.array([2.0, 0.0])) - 1.5)
            return d_half + d_ball

        return ProblemSpec(
            name=name,
            dim=2,
            reference=ref,
            provenance="closed-form",
            objective=infeasibility,
            feasible=lambda x: in_half(x) and in_ball(x),
            ingredients={"projectors": (half, ball), "x0": params.get("x0")},
        )

    if name == "polyak_norm_over_halfspace":
        half = projector("halfspace", normal=[-1.0, 0.0], offset=-1.0)

        def f(x):
            return norm(x)

        def selection(x):
            nx = norm(x)
            return x / nx if nx > 0 else np.zeros_like(x)

        return ProblemSpec(
            name=name,
            dim=2,
            reference=as_vector([1.0, 0.0]),
            provenance="grid-oracle",
            objective=f,
            feasible=_in_halfspace([-1.0, 0.0], -1.0),
            ingredients={"f": f, "s": selection, "projector": half},
            theta=1.0,
            notes="norm minimizer over the halfspace; sublevel set is tangent to it",
        )

    raise ConfigurationError(f"unknown problem {name!r}")


def brute_oracle(spec: ProblemSpec, resolution: float = 1e-3) -> Vector:
    """Grid minimizer of the problem's objective within ``resolution``.

    Multi-scale refinement: scan a coarse grid over a bracketing box, zoom
    onto the best cell (with a safety margin), and repeat until the spacing
    drops below the resolution.  Only meant for dimension <= 3; feasibility
    problems with a feasible supplied start return it directly.
    """
    if not resolution > 0.0:
        raise ConfigurationError(f"brute oracle resolution must be positive, got {resolution!r}")
    if spec.dim > 3:
        raise ConfigurationError("brute oracle supports dimension <= 3 only")
    if spec.objective is None:
        raise ConfigurationError(f"problem {spec.name} has no evaluable objective")
    if spec.name == "feasibility":
        x0 = spec.ingredients.get("x0")
        if x0 is not None and spec.feasible(as_vector(x0)):
            return as_vector(x0)

    lo = np.full(spec.dim, -4.0)
    hi = np.full(spec.dim, 4.0)
    if spec.name == "polyak_norm_over_halfspace":
        lo[0] = 1.0  # restrict the scan to the constraint set

    pts_per_axis = 41
    while True:
        axes = [np.linspace(lo[d], hi[d], pts_per_axis) for d in range(spec.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=1)
        values = np.array([spec.objective(p) for p in grid])
        best = grid[int(np.argmin(values))]
        spacing = (hi - lo) / (pts_per_axis - 1)
        if np.all(spacing <= resolution):
            return best
        margin = 3.0 * spacing
        lo = np.maximum(lo, best - margin)
        hi = np.minimum(hi, best + margin)
        if spec.name == "polyak_norm_over_halfspace":
            lo[0] = max(lo[0], 1.0)
