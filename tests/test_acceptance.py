"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every expected value is either trivially forced, derived from an
independent oracle computed here, or an analytic bound checked directly.
"""

import math
import time

import numpy as np
import pytest

from affiter import (
    AveragedOperator,
    EtaSchedule,
    IterationConfig,
    SequenceError,
    affine_monotone,
    apply_stack,
    averagedness_certificate,
    brute_oracle,
    catalog,
    cesaro,
    chi_value,
    compose,
    constant_relaxation,
    forward_backward,
    gradient_step,
    inertial,
    krasnoselskii_mann,
    l1_subdifferential,
    linear_operator,
    memoryless,
    peaceman_rachford,
    polyak_subgradient,
    projector,
    prox_l1,
    reflector_operator,
    relaxed,
    resolvent_operator,
    run,
    run_certificates,
    subgradient_projector,
    summability_monitor,
    validate_weights,
    window,
)
from affiter.schedules import TOEPLITZ_PROBE
from affiter.space import in_order_sum, norm


def vec(*xs):
    return np.array(xs, dtype=np.float64)


def note(criterion, passed, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# shared acceptance runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mann_rescue_trace():
    preset = krasnoselskii_mann(
        linear_operator(-np.eye(2), alpha=1.0), x0=vec(1.0, 0.0),
        weights=window(2), max_iters=60, stop_residual=0.0, reference=vec(0.0, 0.0),
    )
    _, trace = preset.solve()
    return trace


@pytest.fixture(scope="module")
def pr_trace():
    prob = catalog("l1_quadratic", a=1.0)
    preset = peaceman_rachford(
        prob.ingredients["A"], prob.ingredients["B"], gamma=1.0,
        weights=window(2), x0=vec(0.0), max_iters=50, stop_residual=0.0,
    )
    _, trace = preset.solve()
    return trace


def build_fb_preset(variant, max_iters=200, stop_residual=1e-10):
    prob = catalog("l1_quadratic", a=2.0)
    kwargs = dict(
        A=prob.ingredients["A"], B=prob.ingredients["grad"], beta=prob.beta,
        gamma=1.0, x0=vec(0.0), lam=1.0, max_iters=max_iters,
        stop_residual=stop_residual, reference=prob.reference,
    )
    if variant == "mean":
        kwargs["weights"] = window(3)
    if variant == "inertial":
        kwargs["eta"] = EtaSchedule(kind="nesterov", tau=2.0)
    return forward_backward(variant=variant, **kwargs)


@pytest.fixture(scope="module")
def fb_traces():
    return {v: build_fb_preset(v).solve()[1] for v in ("memoryless", "mean", "inertial")}


@pytest.fixture(scope="module")
def polyak_trace():
    prob = catalog("polyak_norm_over_halfspace")
    preset = polyak_subgradient(
        f=prob.ingredients["f"], s=prob.ingredients["s"], theta=prob.theta,
        region_projector=prob.ingredients["projector"], x0=vec(3.0, 2.0),
        xi=1.0, lam=1.0, weights=window(2), max_iters=500, stop_residual=0.0,
        reference=prob.reference,
    )
    _, trace = preset.solve()
    return trace


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_mean_value_rescue_of_nonconvergent_iteration():
    neg = linear_operator(-np.eye(2), alpha=1.0)
    t0 = time.perf_counter()
    mean_preset = krasnoselskii_mann(
        neg, x0=vec(1.0, 0.0), weights=window(2), max_iters=60, stop_residual=0.0,
    )
    x_mean, _ = mean_preset.solve()
    base_preset = krasnoselskii_mann(
        neg, x0=vec(1.0, 0.0), weights=memoryless(), max_iters=60, stop_residual=0.0,
    )
    _, base_trace = base_preset.solve()
    elapsed = time.perf_counter() - t0

    # oracle: the averaged recursion x_{n+1} = -(x_n + x_{n-1})/2 has
    # characteristic roots of modulus sqrt(1/2), so ||x_60|| ~ 2^-30
    assert np.abs(np.roots([1.0, 0.5, 0.5])) == pytest.approx(math.sqrt(0.5))
    rescued = float(np.linalg.norm(x_mean))
    baseline_fixed = all(
        np.linalg.norm(p) == pytest.approx(1.0) for p in base_trace.points
    )
    ok = rescued <= 1e-7 and baseline_fixed and elapsed < 1.0
    note(1, ok, f"||x_60|| = {rescued:.3e} <= 1e-7; baseline stays at norm 1; {elapsed:.2f}s")
    assert rescued <= 1e-7
    assert baseline_fixed
    assert elapsed < 1.0


def test_criterion_2_mean_value_peaceman_rachford(pr_trace):
    # zer(A+B) = {0}: 0 in sign(0) + (0 - 1) since 1 lies in [-1, 1]
    y_final = float(abs(pr_trace.aux[-1]["y"][0]))
    ok = y_final <= 1e-8 and pr_trace.n_steps <= 50
    note(2, ok, f"|y_50| = {y_final:.3e} <= 1e-8")
    assert y_final <= 1e-8


def test_criterion_3_forward_backward_family(fb_traces):
    prob = catalog("l1_quadratic", a=2.0)
    grad = prob.ingredients["grad"]
    z = prob.reference
    details = []
    for variant, trace in fb_traces.items():
        err = float(np.abs(trace.final_point[0] - 1.0))
        grad_gap = float(np.linalg.norm(grad(trace.xbars[-1]) - grad(z)))
        assert trace.n_steps <= 200, variant
        assert err <= 1e-6, variant
        assert grad_gap <= 1e-6, variant
        details.append(f"{variant}: |x-1|={err:.1e}, grad gap={grad_gap:.1e}")
    note(3, True, "; ".join(details))


def test_criterion_4_certificates_on_acceptance_runs(
    mann_rescue_trace, pr_trace, fb_traces, polyak_trace
):
    runs = {
        "mann_rescue": (mann_rescue_trace, vec(0.0, 0.0), ("i", "ii")),
        "peaceman_rachford": (pr_trace, vec(-1.0), ("i", "ii")),
        "fb_memoryless": (fb_traces["memoryless"], vec(1.0), ("i", "ii", "iii")),
        "fb_mean": (fb_traces["mean"], vec(1.0), ("i", "ii", "iii")),
        "fb_inertial": (fb_traces["inertial"], vec(1.0), ("i", "ii", "iii")),
        "polyak": (polyak_trace, vec(1.0, 0.0), ("i", "ii")),
    }
    details = []
    for name, (trace, x_ref, which) in runs.items():
        reports = run_certificates(trace, x_ref, which=which)
        worst = min(rep.min_slack for rep in reports.values())
        for rep in reports.values():
            assert rep.min_slack >= -1e-9, f"{name} certificate {rep.name}"
        details.append(f"{name}: min slack {worst:.2e}")
    note(4, True, "; ".join(details))


def test_criterion_5_inertial_summability_premise():
    preset = build_fb_preset("inertial", max_iters=1000, stop_residual=0.0)
    _, trace = preset.solve()
    assert trace.n_steps == 1000
    points = trace.points
    diffs = [norm(points[n + 1] - points[n]) for n in range(trace.n_steps)]  # ||x_{n+1} - x_n||
    weighted = [(n + 1) * diffs[n] ** 2 for n in range(len(diffs))]
    report = summability_monitor(weighted, tolerance=1e-6)
    note(5, report.passed,
         f"sum n||dx||^2 = {report.partial_sum:.6f}, last-quarter increment "
         f"{report.tail_increment:.2e} <= 1e-6")
    assert report.passed


def test_criterion_6_chi_bounds():
    nesterov = inertial(EtaSchedule(kind="nesterov", tau=2.0))
    worst_gap = math.inf
    for n in range(101):
        entry = chi_value(nesterov, n)
        bound = (n + 7.0) / 2.0
        worst_gap = min(worst_gap, bound - entry.value)
        assert entry.value <= bound
    constant = inertial(EtaSchedule(kind="constant", eta=0.5))
    chi_half = chi_value(constant, 10).value
    assert chi_half == pytest.approx(2.541494, abs=1e-6)
    assert chi_half <= math.e / 0.5
    note(6, True,
         f"nesterov chi_n <= (n+7)/2 (min gap {worst_gap:.3f}); "
         f"constant eta=0.5 gives {chi_half:.6f} <= {math.e / 0.5:.5f}")


def test_criterion_7_operator_certificates():
    a2 = vec(2.0, -0.5)
    nonexpansive_ops = [
        prox_l1(1.0),
        projector("box", lo=[-1.0, -1.0], hi=[1.0, 1.0]),
        projector("ball", center=[0.0, 0.0], radius=1.5),
        projector("halfspace", normal=[-1.0, 0.0], offset=-1.0),
        projector("nonneg"),
        projector("hyperplane", normal=[1.0, 1.0], offset=1.0),
        gradient_step(1.0, lambda x: x - a2, beta=1.0),
        gradient_step(0.5, lambda x: x - a2, beta=1.0),
        resolvent_operator(0.7, affine_monotone([[2.0, 0.3], [0.3, 1.0]], [0.5, -1.0])),
        reflector_operator(1.0, l1_subdifferential()),
        reflector_operator(0.5, affine_monotone([[1.0, 0.0], [0.0, 3.0]], [0.0, 0.0])),
        linear_operator([[0.0, -1.0], [1.0, 0.0]], alpha=1.0),
    ]
    for op in nonexpansive_ops:
        report = averagedness_certificate(op, dim=2, sample_count=1000, seed=1234)
        assert report.passed, f"{op.name}: violation {report.max_violation:.2e}"

    norm_f = lambda x: float(np.linalg.norm(x))
    norm_s = lambda x: x / np.linalg.norm(x) if np.linalg.norm(x) > 0 else np.zeros_like(x)
    g = subgradient_projector(norm_f, norm_s, theta=1.0)
    fps = [vec(0.0, 0.0), vec(0.3, -0.4), vec(-0.9, 0.0), vec(0.6, 0.6)]
    for op in (g, relaxed(g, 1.3)):
        report = averagedness_certificate(op, dim=2, sample_count=1000, seed=1234,
                                          fixed_points=fps)
        assert report.passed, f"{op.name}: violation {report.max_violation:.2e}"

    # deliberately under-declared: the unit step with beta = 1 is 1/2-averaged
    bad = AveragedOperator(fn=lambda x: x - (x - a2), alpha=0.1, name="underdeclared")
    bad_report = averagedness_certificate(bad, dim=2, sample_count=1000, seed=1234)
    assert not bad_report.passed

    note(7, True,
         f"{len(nonexpansive_ops) + 2} catalog operators pass at declared alpha; "
         f"under-declared alpha=0.1 fails with violation {bad_report.max_violation:.2e}")


def test_criterion_8_aggregate_error_bound():
    prob = catalog("l1_quadratic", a=[2.0, -0.3])
    e1 = lambda n: (0.6**n) * vec(0.05, -0.02)
    e2 = lambda n: (0.7**n) * vec(-0.03, 0.04)
    preset = forward_backward(
        A=prob.ingredients["A"], B=prob.ingredients["grad"], beta=1.0,
        gamma=0.7, x0=vec(0.0, 0.0), lam=1.0, max_iters=100, stop_residual=0.0,
        a_errors=e1, b_errors=lambda n: e2(n) / -0.7,  # layer error is -gamma b_n
    )
    _, trace = preset.solve()
    stack = preset.config.stack_at(0)
    worst_margin = math.inf
    xbars = trace.xbars
    for n in range(trace.n_steps):
        xbar = xbars[n]
        clean = apply_stack(stack, xbar).value
        noisy = apply_stack(stack, xbar, [e1(n), e2(n)])
        deviation = float(np.linalg.norm(noisy.value - clean))
        bound = in_order_sum(noisy.error_norms) + 1e-12
        worst_margin = min(worst_margin, bound - deviation)
        assert deviation <= bound, f"iteration {n}"
    note(8, True, f"deviation <= sum ||e_i|| + 1e-12 at all 100 iterations "
                  f"(min margin {worst_margin:.2e})")


# The norm-over-halfspace geometry has the sublevel set {||x|| <= 1} tangent
# to the constraint halfspace {x_1 >= 1} at the solution (1, 0): the
# alternating projection pattern then contracts the tangential component only
# through the cubic term t <- t - t^3/2, i.e. ||x_n - x*|| ~ 1.22/sqrt(n).
# At n = 500 the error is ~5.5e-2, so the 1e-4 target cannot be met by this
# iteration at this horizon (it would need n ~ 1.5e8).  The assertion is kept
# as stated and expected to fail.
@pytest.mark.xfail(
    strict=True,
    reason="tangential intersection forces ||x_n - x*|| ~ 1.22/sqrt(n); "
    "5.5e-2 at n = 500, so the 1e-4 tolerance is unattainable at this horizon",
)
def test_criterion_9_polyak_subgradient_projection(polyak_trace):
    err = float(np.linalg.norm(polyak_trace.final_point - vec(1.0, 0.0)))
    note(9, err <= 1e-4, f"||x_500 - (1,0)|| = {err:.3e} vs stated 1e-4")
    assert err <= 1e-4


def test_criterion_9_reference_confirmed_by_grid_oracle():
    prob = catalog("polyak_norm_over_halfspace")
    found = brute_oracle(prob, resolution=1e-3)
    gap = float(np.linalg.norm(found - vec(1.0, 0.0)))
    note("9 (reference)", gap <= 1e-3, f"grid oracle minimizer within {gap:.1e} of (1,0)")
    assert gap <= 1e-3


def test_criterion_10_toeplitz_regularity():
    families = {
        "memoryless": memoryless(),
        "window(2)": window(2),
        "window(3)": window(3),
        "cesaro": cesaro(),
        "inertial(const 0.5)": inertial(EtaSchedule(kind="constant", eta=0.5)),
        "inertial(nesterov)": inertial(EtaSchedule(kind="nesterov", tau=2.0)),
    }
    details = []
    for name, sched in families.items():
        report = validate_weights(sched, 10_000)
        assert TOEPLITZ_PROBE == 10_000
        assert report.toeplitz_deviation <= 1e-3, name
        details.append(f"{name}: {report.toeplitz_deviation:.1e}")
    note(10, True, "transform of 1+1/(n+1) within 1e-3 of 1 at n=1e4: " + "; ".join(details))


def test_criterion_11_memoryless_equivalence_is_bit_exact():
    stack = compose([prox_l1(1.0), gradient_step(1.0, lambda x: x - 2.0, beta=1.0)])
    t1, t2 = stack.layers[0].fn, stack.layers[1].fn
    e1 = lambda n: (0.5**n) * vec(0.2)
    e2 = lambda n: (0.8**n) * vec(-0.1)

    x = vec(0.25)
    standalone = [x.copy()]
    for n in range(100):
        y = t2(x) + e2(n)
        y = t1(y) + e1(n)
        x = x + 1.0 * (y - x)
        standalone.append(x.copy())

    cfg = IterationConfig(
        stacks=stack, weights=memoryless(), relaxation=constant_relaxation(1.0),
        x0=vec(0.25), errors=SequenceError([e1, e2]), max_iters=100, stop_residual=0.0,
    )
    trace = run(cfg)
    assert trace.n_steps == 100
    identical = all(
        ours.tobytes() == theirs.tobytes()
        for ours, theirs in zip(trace.points, standalone)
    )
    note(11, identical, "engine orbit equals the plain recursion bit-for-bit over 100 steps")
    assert identical
