"""Digests of a fixed corpus of runs: one sha256 per config and field.

Each config of ``CORPUS`` is built through the library API, solved, budgeted
with ``error_budget_check`` and, where it has a reference, certified with
(i)-(iii).  Each field below is hashed as the ``tobytes()`` of its float64
array, or as the ``repr`` of a string or list of strings:

    points, xbars, residuals, lambdas, phis, thetas, error_norms,
    dist_to_ref, aux.y, aux.z, stop_reason, flags,
    cert_i, cert_ii, cert_iii, budget

A field a config does not have (no reference, no recorder) is left out.  A
config whose build or run raises gets one field, ``raised``, the digest of
the exception's type and message.  The corpus keeps d <= 4 and at most 100
steps, so no BLAS-blocked reduction enters and the whole pass is fast.

``tests/golden/digests.json`` holds the committed digests, and
``test_digests.py`` recomputes them.  A change that moves results on purpose
regenerates the file in its own commit, naming each changed digest.

    PYTHONPATH=src python tests/digests.py             # print the digests as JSON
    PYTHONPATH=src python tests/digests.py --write     # rewrite tests/golden/digests.json
    PYTHONPATH=src python tests/digests.py --diff A B  # name the digests that differ
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from affiter import solvers
from affiter.certificates import run_certificates
from affiter.engine import GeometricError, SequenceError, error_budget_check
from affiter.operators import normal_cone
from affiter.problems import catalog
from affiter.schedules import EtaSchedule, cesaro, inertial, memoryless, window
from affiter.space import norm

DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"

STEPS = 80
D3 = [2.0, -0.3, 0.7]
X0 = [-1.0, 0.5, 3.0]
NESTEROV = EtaSchedule(kind="nesterov", tau=3.0)
CONSTANT = EtaSchedule(kind="constant", eta=0.3)
# zero on every third row, so some inertial xbar_n are x_n itself
CUSTOM = EtaSchedule(kind="custom", eta=0.4, fn=lambda n: 0.0 if n % 3 == 0 else 0.4)
RISING = EtaSchedule(kind="custom", eta=0.25, fn=lambda n: 0.25 * n / (n + 1))


def _a(n):  # a_n, summable
    return np.array([0.02, -0.01, 0.005]) / (n + 1) ** 2


def _b(n):  # b_n, summable
    return np.array([-0.01, 0.03, 0.01]) * 0.7**n


def _fb(weights=None, variant=None, gamma=0.8, eta=None, problem_a=D3, x0=X0, **kwargs):
    problem = catalog("l1_quadratic", a=problem_a)
    if variant is None:
        variant = "memoryless" if weights is None else "mean"
    # the proximal-point variant solves 0 in A x, whose solution is 0
    reference = 0.0 * problem.reference if variant == "proximal_point" else problem.reference
    return solvers.forward_backward(
        A=problem.ingredients["A"], B=problem.ingredients["grad"], beta=problem.beta,
        gamma=gamma, x0=x0[: problem.dim], weights=weights, variant=variant, eta=eta,
        max_iters=STEPS, stop_residual=0.0, reference=reference, **kwargs,
    )


def _fb_ball_inertial(eta, **kwargs):
    # a bounded-domain backward operator: the inertial regime that admits errors
    a = np.array(D3)
    ball = normal_cone("ball", center=[0.0, 0.0, 0.0], radius=1.0)
    return solvers.forward_backward(
        A=ball, B=lambda x: x - a, beta=1.0, gamma=0.8, x0=X0, variant="inertial",
        eta=eta, max_iters=STEPS, stop_residual=0.0, reference=a / norm(a),
        **kwargs,
    )


def _pr(weights=window(2), model=None, **kwargs):
    problem = catalog("l1_quadratic", a=D3)
    gamma = 0.9
    B = problem.ingredients["B"]
    preset = solvers.peaceman_rachford(
        A=problem.ingredients["A"], B=B, gamma=gamma, weights=weights, x0=X0,
        max_iters=STEPS, stop_residual=0.0,
        reference=problem.reference + gamma * B.mapping(problem.reference), **kwargs,
    )
    if model is not None:
        preset.config.errors = model
    return preset


def _polyak(weights=None, xi=1.0):
    problem = catalog("polyak_norm_over_halfspace")
    return solvers.polyak_subgradient(
        f=problem.ingredients["f"], s=problem.ingredients["s"], theta=problem.theta,
        region_projector=problem.ingredients["projector"], x0=[3.0, 2.0], xi=xi,
        weights=weights, max_iters=STEPS, stop_residual=0.0, reference=problem.reference,
    )


def _km(weights, **kwargs):
    problem = catalog("rotation_fixed_point", angle=1.0)
    return solvers.krasnoselskii_mann(
        T=problem.ingredients["T"], x0=[1.0, -0.5], weights=weights,
        max_iters=STEPS, stop_residual=0.0, reference=problem.reference, **kwargs,
    )


def _with(model):
    def build():
        preset = _fb()
        preset.config.errors = model
        return preset

    return build


def _values(dtype, as_list=False, d=3):
    def e(n):
        v = np.array([0.01, -0.02, 0.005][:d], dtype=dtype) / (n + 1) ** 2
        return v.tolist() if as_list else v

    return e


#: name -> a builder of the preset; each solver with each family it admits,
#: the error regimes, and constant and callable gamma and xi
CORPUS = {
    "fb-memoryless": lambda: _fb(),
    "fb-window3": lambda: _fb(window(3)),
    "fb-cesaro": lambda: _fb(cesaro()),
    "fb-inertial-nesterov": lambda: _fb(variant="inertial", eta=NESTEROV),
    "fb-inertial-constant": lambda: _fb(variant="inertial", eta=CONSTANT),
    "fb-inertial-custom": lambda: _fb(variant="inertial", eta=CUSTOM),
    "fb-proximal-point": lambda: _fb(variant="proximal_point"),
    "fb-d1-cesaro": lambda: _fb(cesaro(), problem_a=[2.0]),
    # distances and slacks overflow: flags, and NaN slacks
    "fb-window2-overflow": lambda: _fb(
        window(2), problem_a=[v * 1e155 for v in D3], x0=[v * 1e155 for v in X0]),
    "fb-gamma-callable": lambda: _fb(gamma=lambda n: 0.6 + 0.4 / (n + 1)),
    "fb-gamma-callable-window2": lambda: _fb(window(2), gamma=lambda n: 0.6 + 0.4 / (n + 1)),
    "fb-gamma-callable-constant": lambda: _fb(window(2), gamma=lambda n: 0.7, b_errors=_b),
    "fb-lambda-cap": lambda: _fb(window(2), lam=None),
    "fb-a": lambda: _fb(a_errors=_a),
    "fb-b": lambda: _fb(b_errors=_b),
    "fb-a+b": lambda: _fb(a_errors=_a, b_errors=_b),
    "fb-a+b-cesaro": lambda: _fb(cesaro(), a_errors=_a, b_errors=_b),
    "fb-b-gamma-callable": lambda: _fb(gamma=lambda n: 0.6 + 0.4 / (n + 1), b_errors=_b),
    "fb-a-list-of-vectors": lambda: _fb(window(2), a_errors=[_a(n) for n in range(20)]),
    "fb-geometric-layer1": _with(GeometricError(0.5, [0.01, -0.02, 0.005], layer=1)),
    "fb-geometric-layer2": _with(GeometricError(0.5, [0.01, -0.02, 0.005], layer=2)),
    "fb-sequence-list": _with(SequenceError([_values(np.float64, as_list=True)])),
    "fb-sequence-float64": _with(SequenceError([None, _values(np.float64)])),
    "fb-sequence-float32": _with(SequenceError([_values(np.float32), _values(np.float32)])),
    "fb-ball-inertial-a": lambda: _fb_ball_inertial(CONSTANT, a_errors=_a),
    "fb-ball-inertial-custom-b": lambda: _fb_ball_inertial(CUSTOM, b_errors=_b),
    "pr-window2": lambda: _pr(),
    "pr-window3": lambda: _pr(window(3)),
    "pr-a": lambda: _pr(a_errors=_a),
    "pr-b": lambda: _pr(b_errors=_b),
    "pr-a+b": lambda: _pr(a_errors=_a, b_errors=_b),
    "pr-a+b-window3": lambda: _pr(window(3), a_errors=_a, b_errors=_b),
    "pr-geometric-layer1": lambda: _pr(model=GeometricError(0.5, [0.1, 0.0, -0.05], layer=1)),
    "pr-geometric-layer2": lambda: _pr(model=GeometricError(0.5, [0.1, 0.0, -0.05], layer=2)),
    "polyak-memoryless": lambda: _polyak(),
    "polyak-window2": lambda: _polyak(window(2)),
    "polyak-cesaro": lambda: _polyak(cesaro()),
    "polyak-xi-callable": lambda: _polyak(window(2), xi=lambda n: 1.0 + 0.4 / (n + 1)),
    "polyak-xi-callable-constant": lambda: _polyak(window(2), xi=lambda n: 1.2),
    "km-memoryless": lambda: _km(memoryless(), lam=0.5),
    "km-mean-window2": lambda: _km(window(2)),
    "km-mean-window3-errors": lambda: _km(window(3), errors=_values(np.float64, d=2)),
    "km-inertial-constant": lambda: _km(inertial(CONSTANT), lam=0.3),
    "km-inertial-custom": lambda: _km(inertial(RISING), lam=0.3),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _floats(values) -> str:
    if isinstance(values, np.ndarray):
        return _sha(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return _sha(np.array([np.asarray(v, dtype=np.float64) for v in values]).tobytes())


def digest(build) -> dict[str, str]:
    """The digests of one config's run, budget and certificates."""
    try:
        preset = build()
        _solution, trace = preset.solve()
        # overflowing slacks are results too; run_certificates warns of none
        budget = error_budget_check(preset.config, trace.n_steps)
        reports = {}
        if preset.config.reference is not None:
            reports = run_certificates(
                trace, preset.config.reference, which=("i", "ii", "iii"))
    except Exception as exc:  # a raised error is a result like any other
        return {"raised": _sha(repr((type(exc).__name__, str(exc))).encode())}
    out = {
        "points": _floats(list(trace.points)),
        "xbars": _floats(list(trace.xbars)),
    }
    for name in ("residuals", "lambdas", "phis", "thetas", "error_norms", "dist_to_ref"):
        values = getattr(trace, name)
        if values is not None:
            out[name] = _floats(np.asarray(values, dtype=np.float64))
    if trace.aux is not None:
        for key in ("y", "z"):
            out[f"aux.{key}"] = _floats([record[key] for record in trace.aux])
    out["stop_reason"] = _sha(repr(trace.stop_reason).encode())
    out["flags"] = _sha(repr(list(trace.flags)).encode())
    for name, report in reports.items():
        out[f"cert_{name}"] = _floats(report.slacks)
    out["budget"] = _floats(budget.partial_sums)
    return out


def compute() -> dict[str, dict[str, str]]:
    return {name: digest(build) for name, build in CORPUS.items()}


def differences(old: dict, new: dict) -> list[str]:
    """``config/field`` for each digest that is missing on one side or differs."""
    keys = {(c, f) for side in (old, new) for c, fields in side.items() for f in fields}
    return sorted(
        f"{c}/{f}" for c, f in keys
        if old.get(c, {}).get(f) != new.get(c, {}).get(f)
    )


def main(argv: list[str]) -> int:
    if argv[:1] == ["--diff"] and len(argv) == 3:
        old, new = (json.loads(Path(p).read_text()) for p in argv[1:])
        changed = differences(old, new)
        print("\n".join(changed) if changed else "no digest differs")
        return 1 if changed else 0
    text = json.dumps(compute(), indent=1, sort_keys=True) + "\n"
    if argv == ["--write"]:
        DIGESTS.write_text(text)
    elif not argv:
        sys.stdout.write(text)
    else:
        print(__doc__.rstrip().rpartition("\n\n")[2], file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
