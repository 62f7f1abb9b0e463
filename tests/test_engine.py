import dataclasses
import gc
import math
import re
import sys
import threading
import tracemalloc
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affiter import (
    AveragedOperator,
    ConfigurationError,
    ErrorModel,
    EtaSchedule,
    GeometricError,
    InvalidScheduleError,
    IterationConfig,
    MonotoneMap,
    NumericalDivergence,
    SequenceError,
    affine_combine,
    apply_stack,
    catalog,
    cesaro,
    chi_value,
    compose,
    constant_relaxation,
    error_budget_check,
    forward_backward,
    gradient_step,
    inertial,
    krasnoselskii_mann,
    l1_subdifferential,
    linear_operator,
    memoryless,
    peaceman_rachford,
    prox_l1,
    relaxation_at,
    run,
    run_certificates,
    soft_threshold,
    window,
)
from affiter import engine, space
from affiter.space import BLOCK_FLOATS, as_vector, norm

NEG_ID = compose([linear_operator(-np.eye(1), alpha=1.0)])
NEG_ID2 = compose([linear_operator(-np.eye(2), alpha=1.0)])


def vec(*xs):
    return np.array(xs, dtype=np.float64)


class TestStep:
    """Single updates of ``run`` against hand-computed values."""

    def test_memoryless_hand_value(self):
        # x1 = 2 + 0.5 * (-2 - 2) = 0
        cfg = IterationConfig(
            stacks=NEG_ID, weights=memoryless(), relaxation=constant_relaxation(0.5),
            x0=vec(2.0), max_iters=1, stop_residual=0.0,
        )
        trace = run(cfg)
        assert trace.xbars[0] == pytest.approx(2.0)
        assert trace.points[1] == pytest.approx(0.0)

    def test_inertial_two_steps_hand_values(self):
        cfg = IterationConfig(
            stacks=NEG_ID, weights=inertial(EtaSchedule(kind="constant", eta=0.5)),
            relaxation=constant_relaxation(0.5), x0=vec(1.0), max_iters=2,
            stop_residual=0.0,
        )
        trace = run(cfg)
        assert trace.points[1] == pytest.approx(0.0)
        assert trace.xbars[1] == pytest.approx(-0.5)
        assert trace.points[2] == pytest.approx(0.0)

    def test_fixed_point_is_stationary(self):
        cfg = IterationConfig(
            stacks=compose([prox_l1(1.0)]), weights=memoryless(),
            relaxation=constant_relaxation(1.0), x0=vec(0.0), max_iters=1,
            stop_residual=0.0,
        )
        trace = run(cfg)
        assert np.array_equal(trace.points[1], vec(0.0))


class TestRun:
    def test_window2_mean_value_rescue(self):
        # orbit obeys x_{n+1} = -(x_n + x_{n-1})/2 whose roots have modulus
        # sqrt(1/2); at n = 60 the magnitude is around (1/2)^30 ~ 9e-10
        roots = np.roots([1.0, 0.5, 0.5])
        assert np.allclose(np.abs(roots), np.sqrt(0.5))
        cfg = IterationConfig(
            stacks=NEG_ID2, weights=window(2), relaxation=constant_relaxation(1.0),
            x0=vec(1.0, 0.0), max_iters=60, stop_residual=0.0,
        )
        trace = run(cfg)
        assert trace.n_steps == 60
        assert np.linalg.norm(trace.final_point) <= 1e-7

    def test_memoryless_negation_does_not_converge(self):
        cfg = IterationConfig(
            stacks=NEG_ID2, weights=memoryless(), relaxation=constant_relaxation(1.0),
            x0=vec(1.0, 0.0), max_iters=40, stop_residual=0.0,
        )
        trace = run(cfg)
        norms = [np.linalg.norm(p) for p in trace.points]
        assert all(n == pytest.approx(1.0) for n in norms)

    def test_start_at_fixed_point_stops_immediately(self):
        stack = compose([prox_l1(1.0)])
        cfg = IterationConfig(
            stacks=stack, weights=window(3), relaxation=constant_relaxation(1.0),
            x0=vec(0.0, 0.0), max_iters=50,
        )
        trace = run(cfg)
        assert trace.stop_reason == "residual"
        assert trace.n_steps == 1
        assert trace.residuals[0] == 0.0
        assert np.array_equal(trace.final_point, vec(0.0, 0.0))

    def test_memoryless_matches_standalone_recursion_bitwise(self):
        # engine output must equal the plain multi-layer recursion float-for-float
        stack = compose([prox_l1(1.0), gradient_step(0.8, lambda x: x - 2.0, beta=1.0)])
        t1, t2 = stack.layers[0].fn, stack.layers[1].fn
        e1 = lambda n: (0.5**n) * vec(0.3)
        e2 = lambda n: (0.7**n) * vec(-0.2)
        lam = 1.2

        x = vec(0.25)
        standalone = [x.copy()]
        for n in range(100):
            y = t2(x) + e2(n)
            y = t1(y) + e1(n)
            x = x + lam * (y - x)
            standalone.append(x.copy())

        cfg = IterationConfig(
            stacks=stack, weights=memoryless(), relaxation=constant_relaxation(lam),
            x0=vec(0.25), errors=SequenceError([e1, e2]), max_iters=100,
            stop_residual=0.0,
        )
        trace = run(cfg)
        assert len(trace.points) == len(standalone)
        for ours, theirs in zip(trace.points, standalone):
            assert ours.tobytes() == theirs.tobytes()

    def test_single_layer_mean_matches_standalone_recursion_bitwise(self):
        # the 1-layer orbit-averaged recursion, written out by hand with the
        # same accumulation order (increasing orbit index)
        op = prox_l1(1.0)
        e = lambda n: (0.5**n) * vec(0.1)
        lam = 1.3

        x = [vec(3.0)]
        for n in range(80):
            xbar = x[n].copy() if n == 0 else 0.5 * x[n - 1] + 0.5 * x[n]
            y = op.fn(xbar) + e(n)
            x.append(xbar + lam * (y - xbar))

        cfg = IterationConfig(
            stacks=compose([op]), weights=window(2), relaxation=constant_relaxation(lam),
            x0=vec(3.0), errors=SequenceError([e]), max_iters=80, stop_residual=0.0,
        )
        trace = run(cfg)
        for ours, theirs in zip(trace.points, x):
            assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("weights", [
        memoryless(), window(3), cesaro(),
        inertial(EtaSchedule(kind="constant", eta=0.3)),
        inertial(EtaSchedule(kind="nesterov", tau=2.0)),
    ], ids=["memoryless", "window3", "cesaro", "constant", "nesterov"])
    def test_unit_relaxation_update_is_bit_exact(self, weights):
        # lambda_n = 1 adds the step with no multiply: 1.0 * v is v bit for bit
        stack = compose([prox_l1(0.8), gradient_step(0.8, lambda x: x - vec(2.0, -0.3), beta=1.0)])
        cfg = IterationConfig(
            stacks=stack, weights=weights, relaxation=constant_relaxation(1.0),
            x0=vec(-1.0, 3.0), max_iters=40, stop_residual=0.0,
        )
        trace = run(cfg)
        assert trace.n_steps == 40
        for n, xbar in enumerate(trace.xbars):
            expected = xbar + 1.0 * (apply_stack(stack, xbar).value - xbar)
            assert trace.points[n + 1].tobytes() == expected.tobytes()

    def test_stack_provider_must_keep_layer_count(self):
        two = compose([prox_l1(1.0), gradient_step(1.0, lambda x: x - 2.0, beta=1.0)])
        one = compose([prox_l1(1.0)])
        cfg = IterationConfig(
            stacks=lambda n: one if n > 3 else two, weights=memoryless(),
            relaxation=constant_relaxation(1.0), x0=vec(0.0), max_iters=10,
        )
        with pytest.raises(ConfigurationError, match="layer count"):
            run(cfg)

    def test_orbit_memory_stays_within_support(self):
        cfg = IterationConfig(
            stacks=NEG_ID2, weights=window(3), relaxation=constant_relaxation(1.0),
            x0=vec(1.0, 0.0), max_iters=50, stop_residual=0.0,
        )
        trace = run(cfg)
        assert trace.peak_orbit_points <= window(3).support_bound + 1

    def test_cesaro_incremental_matches_explicit_rows(self):
        stack = compose([gradient_step(0.5, lambda x: x - vec(2.0, -1.0), beta=1.0)])
        cfg = IterationConfig(
            stacks=stack, weights=cesaro(), relaxation=constant_relaxation(1.0),
            x0=vec(0.0, 0.0), max_iters=40, stop_residual=0.0,
        )
        trace = run(cfg)
        xbars = trace.xbars
        for n in range(trace.n_steps):
            explicit = affine_combine(cesaro().row(n), trace.points)
            assert np.linalg.norm(xbars[n] - explicit) <= 1e-12

    def test_cesaro_kernel_holds_one_point(self):
        # the running mean reads x_n only: no orbit store grows with the horizon
        cfg = IterationConfig(
            stacks=NEG_ID2, weights=cesaro(), relaxation=constant_relaxation(1.0),
            x0=vec(1.0, 0.0), max_iters=60, stop_residual=0.0,
        )
        trace = run(cfg)
        assert len(trace.points) == 61
        assert trace.peak_orbit_points == 1

    def test_divergence_raises_with_iteration(self):
        expanding = compose([linear_operator(2.0 * np.eye(1), alpha=1.0)])
        cfg = IterationConfig(
            stacks=expanding, weights=memoryless(), relaxation=constant_relaxation(1.0),
            x0=vec(1.0), max_iters=2000, stop_residual=0.0,
        )
        with pytest.raises(NumericalDivergence) as err:
            run(cfg)
        assert err.value.iteration is not None

    @pytest.mark.parametrize("lam, iteration", [(1.0, 1023), (0.5, 1749)])
    def test_divergence_is_the_same_with_a_reference(self, lam, iteration):
        # x_{n+1} = (1 + lam) x_n leaves the floats at the same n whether or not
        # the next distance checks finiteness; [-1e300] overflows that distance
        # hundreds of steps before the iterate itself
        expanding = compose([linear_operator(2.0 * np.eye(1), alpha=1.0)])
        raised = []
        for reference in (None, vec(0.0), vec(-1e300)):
            cfg = IterationConfig(
                stacks=expanding, weights=memoryless(), relaxation=constant_relaxation(lam),
                x0=vec(1.0), max_iters=5000, stop_residual=0.0, reference=reference,
            )
            with pytest.raises(NumericalDivergence) as err:
                run(cfg)
            raised.append((err.value.iteration, str(err.value)))
        assert raised == [(iteration, f"iterate became non-finite at iteration {iteration}")] * 3

    @pytest.mark.parametrize("reference", [vec(0.0), vec(-1.5e308)], ids=["dot", "subtract"])
    def test_overflowing_distance_leaves_the_flags_to_the_layers(self, reference):
        # finite iterates whose distance to the reference overflows: no raise,
        # the layer's warnings reach the caller, trace.flags holds the numpy
        # events of the plain loop, which measures no distance, and
        # dist_to_ref reads inf where one overflows
        def far(x):
            warnings.warn(f"far from {x[0]:.3g}")
            return vec(1.5e308)

        stack = compose([AveragedOperator(fn=far, alpha=1.0)])
        cfg = IterationConfig(
            stacks=stack, weights=memoryless(), relaxation=constant_relaxation(1.0),
            x0=vec(1.0), max_iters=4, stop_residual=0.0, reference=reference,
        )
        with pytest.warns(UserWarning) as warned:
            trace = run(cfg)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x = vec(1.0)
            for _ in range(4):
                step = far(x) - x
                norm(step)
                x = x + step
        with np.errstate(over="ignore"):
            dists = [norm(p - reference) for p in trace.points[:4]]
        assert all(np.isfinite(p).all() for p in trace.points)
        assert trace.dist_to_ref.tolist() == dists
        assert math.isinf(dists[-1])
        assert [str(w.message) for w in warned] == [
            str(w.message) for w in caught if w.category is UserWarning
        ]
        assert trace.flags == [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert trace.flags == ["overflow encountered in dot"]

    def test_bad_relaxation_aborts_before_iterating(self):
        from affiter import AveragedOperator

        calls = []

        def counting(x):
            calls.append(1)
            return -x

        stack = compose([AveragedOperator(fn=counting, alpha=0.5, name="counting")])
        cfg = IterationConfig(
            stacks=stack, weights=memoryless(), relaxation=constant_relaxation(5.0),
            x0=vec(1.0), max_iters=10,
        )
        with pytest.raises(ConfigurationError, match="1/phi"):
            run(cfg)
        assert calls == []

    def test_dist_to_ref_column(self):
        cfg = IterationConfig(
            stacks=NEG_ID2, weights=window(2), relaxation=constant_relaxation(1.0),
            x0=vec(1.0, 0.0), max_iters=10, stop_residual=0.0, reference=vec(0.0, 0.0),
        )
        trace = run(cfg)
        assert trace.dist_to_ref[0] == pytest.approx(1.0)
        assert trace.final_dist_to_ref() == pytest.approx(np.linalg.norm(trace.final_point))


KERNEL_WEIGHTS = st.one_of(
    st.just(memoryless()),
    st.integers(1, 6).map(window),
    st.floats(0.0, 0.95).map(lambda eta: inertial(EtaSchedule(kind="constant", eta=eta))),
    st.floats(2.0, 10.0).map(lambda tau: inertial(EtaSchedule(kind="nesterov", tau=tau))),
    st.floats(0.0, 0.95).map(lambda sup: inertial(
        EtaSchedule(kind="custom", eta=sup, fn=lambda n: sup * n / (n + 2.0)))),
)


FB_VARIANTS = {
    "memoryless": {},
    "nesterov": dict(variant="inertial", eta=EtaSchedule(kind="nesterov", tau=2.0)),
    "window3": dict(variant="mean", weights=window(3)),
    "window10": dict(variant="mean", weights=window(10)),
    "cesaro": dict(variant="mean", weights=cesaro()),
}


def fb_preset(dim, max_iters, variant):
    """Forward-backward on ``min ||x||_1 + 1/2 ||x - a||^2``, with the weights
    of ``FB_VARIANTS[variant]``."""
    rng = np.random.default_rng(dim)
    a = rng.uniform(-3.0, 3.0, dim)
    extra = FB_VARIANTS[variant]
    return forward_backward(
        A=l1_subdifferential(), B=lambda x: x - a, beta=1.0, gamma=0.8,
        x0=rng.standard_normal(dim), max_iters=max_iters, stop_residual=0.0,
        reference=soft_threshold(a, 1.0), **extra,
    )


def linear_monotone(a):
    """``B x = x - a``, with its resolvent ``(x + g a) / (1 + g)``."""
    return MonotoneMap(name="x - a", resolvent=lambda g, x: (x + g * a) / (1.0 + g))


def traced_solve(preset):
    """``preset.solve()``'s trace, and the bytes it retained and its peak, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _solution, trace = preset.solve()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return trace, current - start, peak - start


class TestTracePacking:
    """The trace keeps its orbit in packed float64 rows and its per-step
    scalars in ``array("d")``: one boxed float costs 33 B, and one 2-float
    ndarray about 137 B.  It keeps no xbar_n, no constant lambda_n column and,
    without errors, no theta_n column."""

    @pytest.mark.parametrize("variant", ["memoryless", "nesterov", "window10", "cesaro"])
    def test_a_step_at_d2_retains_at_most_40_bytes(self, variant):
        # x_{n+1} (16 B) and r_n (8 B)
        steps = 2000
        trace, retained, _peak = traced_solve(fb_preset(2, steps, variant))
        assert trace.n_steps == steps
        for column in (trace.lambdas, trace.phis, trace.residuals, trace.thetas,
                       trace.dist_to_ref):
            assert isinstance(column, array) and column.typecode == "d"
            assert len(column) == steps
        assert retained <= 40 * steps

    def test_a_peaceman_rachford_step_with_errors_retains_at_most_100_bytes(self):
        # x_{n+1}, y_n, z_n (16 B each), r_n, theta_n and two error norms;
        # a record dict of two fresh ndarrays and a tuple of norms took about 630 B
        steps, a = 2000, vec(1.0, -2.0)
        preset = peaceman_rachford(
            l1_subdifferential(), linear_monotone(a), gamma=1.0, weights=window(2),
            x0=vec(3.0, 1.0), b_errors=lambda n: 0.9**n * vec(0.3, -0.1),
            max_iters=steps, stop_residual=0.0, reference=vec(0.0, 0.0),
        )
        trace, retained, _peak = traced_solve(preset)
        assert trace.n_steps == steps
        assert trace.error_norms.shape == (steps, 2) and trace.error_norms.dtype == np.float64
        assert retained <= 100 * steps

    @pytest.mark.parametrize("variant", ["memoryless", "nesterov", "window3"])
    def test_a_long_orbit_is_kept_once(self, variant):
        # rows of 2**16 floats or more are kept as the arrays the run made
        dim, steps = BLOCK_FLOATS + 1, 20
        preset = fb_preset(dim, steps, variant)
        trace, retained, peak = traced_solve(preset)
        assert np.shares_memory(trace.points[0], preset.config.x0)
        row = 8 * dim
        # x_1 .. x_N (x_0 is the caller's), and a few vectors of one step;
        # a second copy of the orbit, such as stored xbar_n, would take N more rows
        assert retained <= steps * row + 100_000
        assert peak <= (steps + 8) * row
        if variant == "memoryless":
            assert all(np.shares_memory(xbar, x) for xbar, x in zip(trace.xbars, trace.points))


class TestPlan:
    """The pre-pass checks the horizon once; the loop reads its plan."""

    def test_callable_lam_and_stack_provider_called_once_per_n(self):
        stack = compose([prox_l1(1.0)])
        stack_calls, lam_calls = [], []

        def provider(n):
            stack_calls.append(n)
            return stack

        def lam(n):
            lam_calls.append(n)
            return 1.0

        cfg = IterationConfig(
            stacks=provider, weights=memoryless(), relaxation=constant_relaxation(lam),
            x0=vec(3.0), max_iters=12, stop_residual=0.0,
        )
        run(cfg)
        assert stack_calls == list(range(12))
        assert lam_calls == list(range(12))

    @pytest.mark.parametrize("lam, evaluated_at", [
        (0.75, [0]),
        (lambda n: 0.75, list(range(12))),
    ], ids=["constant", "callable"])
    def test_fixed_stack_evaluates_a_constant_lam_once(self, monkeypatch, lam, evaluated_at):
        seen = []

        def counting(rs, n, phi_n):
            seen.append(n)
            return relaxation_at(rs, n, phi_n)

        monkeypatch.setattr(engine, "relaxation_at", counting)
        cfg = IterationConfig(
            stacks=compose([prox_l1(1.0)]), weights=memoryless(),
            relaxation=constant_relaxation(lam), x0=vec(3.0), max_iters=12, stop_residual=0.0,
        )
        trace = run(cfg)
        assert seen == evaluated_at
        assert trace.lambdas.tolist() == [0.75] * 12
        # the first violated bound keeps its n = 0
        with pytest.raises(ConfigurationError, match=r"^lambda_0 = 5\.0 exceeds"):
            run(dataclasses.replace(cfg, relaxation=constant_relaxation(5.0)))

    @pytest.mark.parametrize("gamma", [0.8, lambda n: 0.6 + 0.4 / (n + 1)],
                             ids=["one-stack", "provider"])
    def test_the_trace_reads_its_plan_not_the_config(self, gamma):
        problem = catalog("l1_quadratic", a=[2.0, -0.3])
        preset = forward_backward(
            A=problem.ingredients["A"], B=problem.ingredients["grad"], beta=problem.beta,
            gamma=gamma, x0=vec(-1.0, 2.0), variant="mean", weights=window(2), max_iters=30,
            stop_residual=0.0, reference=problem.reference,
        )
        _, trace = preset.solve()
        x_ref = problem.reference

        def read():
            reports = run_certificates(trace, x_ref, which=("i", "ii", "iii"))
            return [np.asarray(trace.xbars[n]).tobytes() for n in range(trace.n_steps)] + [
                array("d", trace.dist_to_ref).tobytes(), repr(trace.final_dist_to_ref()),
                trace.lambdas.tobytes(), trace.phis.tobytes(),
                *(rep.slacks.tobytes() for rep in reports.values()),
            ]

        before = read()
        other = forward_backward(
            A=problem.ingredients["A"], B=problem.ingredients["grad"], beta=problem.beta,
            gamma=0.3, x0=vec(-1.0, 2.0), max_iters=30,
        )
        preset.config.weights = cesaro()
        preset.config.reference = x_ref + 1.0
        preset.config.stacks = other.config.stacks
        assert read() == before

    def test_custom_eta_leaving_band_raises_before_operator_calls(self):
        # the bad value sits deep in the horizon: only a whole-horizon check sees it early
        calls = []

        def counting(x):
            calls.append(1)
            return 0.5 * x

        eta = EtaSchedule(kind="custom", eta=0.5, fn=lambda n: 1.5 if n == 1200 else 0.25)
        cfg = IterationConfig(
            stacks=compose([AveragedOperator(fn=counting, alpha=0.5, name="counting")]),
            weights=inertial(eta), relaxation=constant_relaxation(1.0), x0=vec(1.0),
            max_iters=1300, stop_residual=0.0,
        )
        with pytest.raises(InvalidScheduleError, match=r"custom eta value 1.5 at n=1200 outside \[0, 1\)"):
            run(cfg)
        assert calls == []

    @pytest.mark.parametrize("errors", [
        GeometricError(0.5, vec(0.1), layer=3),
        SequenceError([None, None, lambda n: vec(0.1)]),
    ], ids=["geometric", "sequence"])
    def test_error_layer_below_the_stack_raises_before_operator_calls(self, errors):
        calls = []

        def counting(x):
            calls.append(1)
            return 0.5 * x

        stack = compose([AveragedOperator(fn=counting, alpha=0.5, name="counting"), prox_l1(1.0)])
        for stacks in (stack, lambda n: stack):
            cfg = IterationConfig(
                stacks=stacks, weights=memoryless(), relaxation=constant_relaxation(1.0),
                x0=vec(1.0), errors=errors, max_iters=10, stop_residual=0.0,
            )
            with pytest.raises(ConfigurationError, match="perturbs layer 3, but the stack has 2"):
                run(cfg)
        assert calls == []

    def test_an_error_direction_of_another_dimension_raises_before_operator_calls(self):
        calls = []
        op = AveragedOperator(fn=lambda x: calls.append(1) or 0.5 * x, alpha=0.5)
        for stacks in (compose([op]), lambda n: compose([op])):
            cfg = IterationConfig(
                stacks=stacks, weights=window(2), relaxation=constant_relaxation(1.0),
                x0=vec(1.0, 2.0), errors=GeometricError(0.5, vec(0.1, 0.2, 0.3)),
                max_iters=10, stop_residual=0.0,
            )
            with pytest.raises(ConfigurationError) as info:
                run(cfg)
            assert str(info.value) == "error direction has dimension 3, but x0 has 2"
            # the error budget reads the same pre-pass
            with pytest.raises(ConfigurationError, match="^error direction has dimension 3"):
                error_budget_check(cfg, 5)
        assert calls == []

    @settings(deadline=None, max_examples=80)
    @given(
        weights=KERNEL_WEIGHTS,
        dim=st.integers(1, 4),
        steps=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernel_xbar_matches_affine_combine_bitwise(self, weights, dim, steps, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        cfg = IterationConfig(
            stacks=compose([linear_operator(0.9 * q, alpha=1.0)]), weights=weights,
            relaxation=constant_relaxation(float(rng.uniform(0.2, 1.0))),
            x0=rng.standard_normal(dim) * 10.0 ** rng.uniform(-3.0, 3.0),
            max_iters=steps, stop_residual=0.0,
        )
        trace = run(cfg)
        for n, xbar in enumerate(trace.xbars):
            if weights.family == "memoryless":
                # the same memory as x_n, not a second copy
                assert np.shares_memory(xbar, trace.points[n])
                assert xbar.tobytes() == trace.points[n].tobytes()
            else:
                assert xbar.tobytes() == affine_combine(weights.row(n), trace.points).tobytes()


def recorder_config(record, max_iters=6, **kw):
    """A window(2) run in the plane with ``aux_recorder=record``."""
    return IterationConfig(
        stacks=NEG_ID2, weights=window(2), relaxation=constant_relaxation(1.0),
        x0=vec(1.0, 0.5), max_iters=max_iters, stop_residual=0.0, aux_recorder=record, **kw,
    )


class TestAuxColumns:
    """``trace.aux`` reads the recorder's values back from packed rows."""

    def test_aux_is_a_sequence_of_step_mappings(self):
        trace = run(recorder_config(lambda n, xbar, _e: {"xbar": xbar, "n": np.full(2, n)}))
        aux = trace.aux
        assert len(aux) == trace.n_steps == 6
        xbars = trace.xbars
        for n, record in enumerate(aux):
            assert list(record) == ["xbar", "n"]
            assert record["xbar"].tobytes() == xbars[n].tobytes()
            assert record["n"].tolist() == [n, n]
            assert record["xbar"].ndim == 1 and record["xbar"].dtype == np.float64
        assert aux[-1]["n"].tolist() == [5.0, 5.0] and aux[-6]["n"].tolist() == [0.0, 0.0]
        assert [r["n"][0] for r in aux[1:5:2]] == [1.0, 3.0]
        assert [r["n"][0] for r in reversed(aux)] == [5.0, 4.0, 3.0, 2.0, 1.0, 0.0]
        assert aux[::-1][0]["n"][0] == 5.0 and aux[7:] == []
        for bad in (6, -7):
            with pytest.raises(IndexError):
                aux[bad]

    def test_values_are_copied(self):
        buffer = np.zeros(2)

        def record(n, _xbar, _e):
            buffer[:] = n  # one array, rewritten at every step
            return {"n": buffer}

        trace = run(recorder_config(record))
        assert [r["n"][0] for r in trace.aux] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_a_list_value_is_read_as_a_vector(self):
        trace = run(recorder_config(lambda n, _xbar, _e: {"v": [n, -n]}))
        assert trace.aux[3]["v"].tolist() == [3.0, -3.0]

    def test_a_zero_step_run_has_an_empty_aux(self):
        calls = []
        trace = run(recorder_config(lambda n, xbar, _e: calls.append(n) or {"v": xbar},
                                    max_iters=0))
        assert calls == [] and trace.n_steps == 0
        assert len(trace.aux) == 0 and list(trace.aux) == [] and trace.aux[:] == []
        assert not trace.aux  # perfbench reads ``trace.aux or ()``
        with pytest.raises(IndexError):
            trace.aux[-1]

    def test_no_recorder_no_aux(self):
        assert run(recorder_config(None)).aux is None

    @pytest.mark.parametrize("value,got", [
        (1.0, "shape ()"),
        (np.float64(1.0), "shape ()"),
        (np.array(1.0), "shape ()"),
        (np.zeros((1, 2)), "shape (1, 2)"),
        (np.zeros(3), "shape (3,)"),
        ([1.0], "shape (1,)"),
        (None, "shape ()"),
        ("ab", "str"),
    ], ids=["float", "float64", "0-d", "1x2", "3", "list", "None", "str"])
    def test_a_value_of_another_shape_raises_naming_its_key_and_n(self, value, got):
        # a scalar is not broadcast into the row
        def record(n, xbar, _e):
            return {"y": xbar, "bad": xbar if n < 3 else value}

        with pytest.raises(ConfigurationError) as info:
            run(recorder_config(record))
        assert str(info.value) == (
            f"aux_recorder value 'bad' at n=3 must be a vector of dimension 2, got {got}"
        )

    def test_a_first_value_of_another_shape_raises(self):
        with pytest.raises(ConfigurationError, match="'v' at n=0 .* got shape \\(\\)"):
            run(recorder_config(lambda n, _xbar, _e: {"v": 0.0}))

    @pytest.mark.parametrize("keys", [("y",), ("y", "z", "w"), ("y", "w")])
    def test_the_first_record_fixes_the_keys(self, keys):
        def record(n, xbar, _e):
            return dict.fromkeys(("y", "z") if n < 2 else keys, xbar)

        with pytest.raises(ConfigurationError) as info:
            run(recorder_config(record))
        assert str(info.value) == (
            f"aux_recorder keys at n=2 are {list(keys)}, not the first record's ['y', 'z']"
        )


class TestErrorColumns:
    """``error_norms`` is one float64 array; an error-free run keeps no norm or theta."""

    def config(self, errors=None, **kw):
        stack = compose([prox_l1(0.5), gradient_step(0.7, lambda x: x - 2.0, beta=1.0)])
        args = dict(stacks=stack, weights=window(2), x0=vec(3.0, -1.0), max_iters=9,
                    stop_residual=0.0, relaxation=constant_relaxation(lambda n: 0.5 + 0.05 * n))
        if errors is not None:
            args["errors"] = errors
        return IterationConfig(**(args | kw))

    def test_error_free_norms_and_thetas_are_zeros(self):
        trace = run(self.config())
        assert trace.error_norms.shape == (9, 2) and trace.error_norms.dtype == np.float64
        assert not trace.error_norms.flags.writeable
        assert not trace.error_norms.any()
        expected = array("d", [lam * 0.0 for lam in trace.lambdas])
        assert isinstance(trace.thetas, array) and trace.thetas.typecode == "d"
        assert trace.thetas.tobytes() == expected.tobytes()

    def test_norms_are_the_stack_passes_per_layer_norms(self):
        errors = SequenceError([lambda n: vec(0.1 * n, 0.0), lambda n: vec(0.0, 0.5**n)])
        trace = run(self.config(errors))
        rows = [apply_stack(trace.stack_at(n), xbar, errors.errors_for(n)).error_norms
                for n, xbar in enumerate(trace.xbars)]
        assert trace.error_norms.shape == (9, 2) and trace.error_norms.dtype == np.float64
        assert trace.error_norms.tobytes() == np.array(rows).tobytes()
        assert trace.thetas.tolist() == [
            lam * sum(row) for lam, row in zip(trace.lambdas, rows)]

    def test_a_model_whose_step_has_no_error_keeps_zero_rows(self):
        trace = run(self.config(SequenceError([lambda n: vec(1.0, 1.0) if n == 2 else None])))
        assert trace.error_norms[:, 1].tolist() == [0.0] * 9
        assert trace.error_norms[:, 0].tolist() == [0.0, 0.0, math.sqrt(2.0)] + [0.0] * 6

    @pytest.mark.parametrize("errors", [None, GeometricError(0.5, vec(1.0, 1.0))])
    def test_zero_step_runs(self, errors):
        fixed = run(self.config(errors, max_iters=0))
        provided = run(self.config(errors, max_iters=0, stacks=lambda n: fixed.stacks))
        assert fixed.error_norms.shape == (0, 2) and provided.error_norms.shape == (0, 0)
        assert len(fixed.thetas) == len(provided.thetas) == 0


class TestStopResidual:
    @pytest.mark.parametrize("value", [math.nan, -1.0, -math.inf, -0.5e-300])
    def test_a_negative_or_nan_stop_residual_is_rejected_before_any_layer_call(self, value):
        calls = []
        op = AveragedOperator(fn=lambda x: calls.append(1) or 0.5 * x, alpha=0.5)
        cfg = IterationConfig(
            stacks=compose([op]), weights=memoryless(), relaxation=constant_relaxation(1.0),
            x0=vec(1.0), max_iters=5, stop_residual=value,
        )
        with pytest.raises(ConfigurationError) as info:
            run(cfg)
        assert str(info.value) == f"stop_residual must be >= 0 (0 disables the stop), got {value}"
        assert calls == []

    @pytest.mark.parametrize("value,steps", [(0.0, 40), (-0.0, 40), (1e-3, 10), (math.inf, 1)])
    def test_zero_or_a_positive_value_is_accepted(self, value, steps):
        cfg = IterationConfig(
            stacks=compose([linear_operator(0.5 * np.eye(1), alpha=0.75)]),
            weights=memoryless(), relaxation=constant_relaxation(1.0), x0=vec(1.0),
            max_iters=40, stop_residual=value,
        )
        assert run(cfg).n_steps == steps


class TestMaxIters:
    """A negative or non-integer ``max_iters`` is a configuration error, raised
    by the pre-pass before any operator call; 0 is a run of no steps."""

    @staticmethod
    def counted_config(max_iters):
        calls = []
        op = AveragedOperator(fn=lambda x: calls.append(1) or 0.5 * x, alpha=0.5)
        cfg = IterationConfig(
            stacks=lambda n: compose([op]), weights=window(2),
            relaxation=constant_relaxation(lambda n: calls.append(1) or 1.0),
            x0=vec(1.0), max_iters=max_iters, stop_residual=0.0,
        )
        return cfg, calls

    @pytest.mark.parametrize("value", [-1, 2.5, "3", None, True, False])
    def test_a_bad_max_iters_is_rejected_before_any_call(self, value):
        cfg, calls = self.counted_config(value)
        with pytest.raises(ConfigurationError) as info:
            run(cfg)
        assert str(info.value) == f"max_iters must be an integer >= 0, got {value!r}"
        assert calls == []

    def test_a_builder_with_a_negative_max_iters_fails_to_solve_by_name(self):
        problem = catalog("l1_quadratic", a=[2.0, -0.3])
        preset = forward_backward(
            A=problem.ingredients["A"], B=problem.ingredients["grad"], beta=problem.beta,
            gamma=1.0, x0=[1.0, 1.0], max_iters=-3,
        )
        with pytest.raises(ConfigurationError) as info:
            preset.solve()
        assert str(info.value) == "max_iters must be an integer >= 0, got -3"

    @pytest.mark.parametrize("value", [0, np.int64(0)])
    def test_zero_max_iters_is_a_run_of_no_steps(self, value):
        cfg, calls = self.counted_config(value)
        trace = run(cfg)
        assert trace.n_steps == 0 and len(trace.points) == 1 and calls == []
        assert trace.phis.tolist() == [] and trace.stop_reason == "max_iters"

    def test_a_run_of_no_steps_has_no_final_residual(self):
        cfg, _calls = self.counted_config(0)
        cfg.reference = vec(0.0)
        trace = run(cfg)
        assert trace.final_residual is None
        assert trace.final_dist_to_ref() == 1.0 and trace.dist_to_ref.tolist() == []
        assert run(dataclasses.replace(cfg, max_iters=1)).final_residual == 0.5

    def test_an_integer_like_max_iters_runs(self):
        cfg, _calls = self.counted_config(np.int64(4))
        assert run(cfg).n_steps == 4

    def test_a_given_horizon_does_not_read_max_iters(self):
        # error_budget_check sweeps its own horizon, as before the check
        cfg, _calls = self.counted_config(-1)
        assert error_budget_check(cfg, 10).partial_sums.size == 11


class TestResidualModes:
    """Injected errors: the residual stays the clean one."""

    def test_synthetic_errors_keep_exact_residual(self):
        # the residual is the clean pass's, bit for bit, whatever was injected
        stack = compose([prox_l1(1.0)])
        cfg = IterationConfig(
            stacks=stack, weights=memoryless(), relaxation=constant_relaxation(1.0),
            x0=vec(3.0), errors=GeometricError(0.5, vec(1.0)), max_iters=5,
            stop_residual=0.0,
        )
        trace = run(cfg)
        for xbar, residual in zip(trace.xbars, trace.residuals):
            assert residual == norm(apply_stack(stack, xbar).value - xbar)
        assert trace.thetas[0] == pytest.approx(1.0)  # lam * ||e_0|| = 1

    def test_outer_layer_error_costs_no_extra_layer_call(self):
        # the clean residual is the outer layer's output before e_1 is added
        calls = {"outer": 0, "inner": 0}

        def counted(key, op):
            def fn(x):
                calls[key] += 1
                return op.fn(x)

            return AveragedOperator(fn=fn, alpha=op.alpha)

        stack = compose([
            counted("outer", prox_l1(1.0)),
            counted("inner", gradient_step(0.7, lambda x: x - 2.0, beta=1.0)),
        ])
        cfg = IterationConfig(
            stacks=stack, weights=memoryless(), relaxation=constant_relaxation(1.0),
            x0=vec(3.0), errors=GeometricError(0.5, vec(0.1), layer=1), max_iters=12,
            stop_residual=0.0,
        )
        trace = run(cfg)
        assert calls == {"outer": 12, "inner": 12}

    def test_sequence_error_coerces_a_returned_list(self):
        def config(e):
            return IterationConfig(
                stacks=compose([prox_l1(1.0)]), weights=memoryless(),
                relaxation=constant_relaxation(1.0), x0=vec(3.0),
                errors=SequenceError([e]), max_iters=5, stop_residual=0.0,
            )

        listed = run(config(lambda n: [0.5**n]))
        arrays = run(config(lambda n: vec(0.5**n)))
        assert [p.tobytes() for p in listed.points] == [p.tobytes() for p in arrays.points]
        assert listed.thetas.tolist() == arrays.thetas.tolist() == [0.5**n for n in range(5)]


class TestErrorBudget:
    def base_config(self, weights, errors, lam=1.0):
        return IterationConfig(
            stacks=NEG_ID, weights=weights, relaxation=constant_relaxation(lam),
            x0=vec(1.0), errors=errors, max_iters=10,
        )

    def test_zero_errors_zero_sums(self):
        from affiter import ErrorModel

        report = error_budget_check(self.base_config(memoryless(), ErrorModel()), 50)
        assert report.total == 0.0
        assert report.flags == ()

    def test_geometric_partial_sums_approach_two(self):
        cfg = self.base_config(memoryless(), GeometricError(0.5, vec(1.0)))
        report = error_budget_check(cfg, 60)
        assert report.total == pytest.approx(2.0, abs=1e-12)
        assert report.tail_increment <= 1e-9

    def test_error_layer_below_the_stack_raises(self):
        stack = compose([prox_l1(1.0), gradient_step(0.7, lambda x: x - 2.0, beta=1.0)])
        cfg = IterationConfig(
            stacks=stack, weights=memoryless(), relaxation=constant_relaxation(1.0),
            x0=vec(1.0), errors=GeometricError(0.5, [1.0], layer=3), max_iters=10,
        )
        with pytest.raises(ConfigurationError, match="perturbs layer 3, but the stack has 2"):
            error_budget_check(cfg, 20)

    @pytest.mark.parametrize("value,expected", [
        (np.array([3.0, 4.0]), 5.0),
        ([3.0, 4.0], 5.0),
        (3, 3.0),
        (np.array([0.1, 0.2], dtype=np.float32),
         float(np.linalg.norm(np.array([0.1, 0.2], dtype=np.float32).astype(np.float64)))),
        (np.array([1e200, 1e200]), float("inf")),
        (np.array([[3.0, 4.0]]), "expected a 1-D point, got shape (1, 2)"),
        (np.array([1.0, np.nan]), "point has non-finite coordinates"),
        (np.array([np.inf, 0.0]), "point has non-finite coordinates"),
    ], ids=["float64", "list", "int", "float32", "overflow", "2-D", "nan", "inf"])
    def test_sequence_budget_coerces_only_what_it_must(self, value, expected):
        # a finite float64 array of x0's shape is its own norm; every other
        # value goes through as_vector, with its value or its message
        cfg = self.base_config(memoryless(), SequenceError([lambda n: value]))
        if np.size(value) == 2:  # an error of another dimension than x0's is rejected
            cfg.stacks, cfg.x0 = NEG_ID2, vec(1.0, 1.0)
        if isinstance(expected, str):
            with pytest.raises(ConfigurationError, match=re.escape(expected)):
                error_budget_check(cfg, 1)
        else:
            with np.errstate(over="ignore"):  # the overflow case's dot
                assert error_budget_check(cfg, 1).partial_sums[0] == expected

    def test_partial_sums_add_each_layers_budget_in_order(self):
        # the sums and flags add the norms of errors_for(n)'s layers 1..m in
        # order, with one errors_for call per n, for the three kinds of model
        class Decaying(ErrorModel):
            layers = 2

            def __init__(self):
                self.calls = []

            def errors_for(self, n):
                self.calls.append(n)
                return [vec(0.3 * i / (n + 1.0) ** 2) for i in (1, 2)]

        stack = compose([prox_l1(1.0), gradient_step(0.7, lambda x: x - 2.0, beta=1.0)])
        models = [
            GeometricError(0.7, vec(0.3), layer=2),
            SequenceError([lambda n: [0.1 / (n + 1.0)], lambda n: vec(0.2 * 0.9**n)]),
            Decaying(),
        ]
        regimes = [(memoryless(), 0.9), (inertial(EtaSchedule(kind="constant", eta=0.3)), 1.0)]
        horizon = 40
        for model in models:
            for weights, lam in regimes:
                cfg = IterationConfig(
                    stacks=stack, weights=weights, relaxation=constant_relaxation(lam),
                    x0=vec(1.0), errors=model, max_iters=10,
                )
                acc, expected = 0.0, []
                for n in range(horizon + 1):
                    chi_n = 1.0 if weights.nonnegative else chi_value(weights, n).value
                    norms = [0.0 if e is None else norm(as_vector(e))
                             for e in model.errors_for(n)]
                    acc += chi_n * lam * sum(norms + [0.0] * (2 - len(norms)))
                    expected.append(acc)
                if isinstance(model, Decaying):
                    model.calls.clear()
                report = error_budget_check(cfg, horizon)
                assert report.partial_sums.tobytes() == np.array(expected).tobytes()
                unsupported = not weights.nonnegative  # prox_l1 has an unbounded range
                assert report.flags == ((
                    "unsupported-regime: errors under inertial weights are only "
                    "covered with unit relaxation and a bounded-range outer layer",
                ) if unsupported else ())
                if isinstance(model, Decaying):
                    assert model.calls == list(range(horizon + 1))

    @staticmethod
    def thetas_cases(weights):
        """Configs with errors on ``weights``: forward-backward with a and b
        errors, and with a geometric model on layer 1 and on layer 2; for
        families the mean-value methods admit, Peaceman-Rachford with a and
        b errors and a Krasnoselskii-Mann mean run with errors."""
        prob = catalog("l1_quadratic", a=[2.0, -0.3, 0.7])
        A, B = prob.ingredients["A"], prob.ingredients["B"]
        x0, steps = vec(-1.0, 2.0, 3.0), 40

        def a_errors(n):
            return vec(0.1, -0.2, 0.05) / (n + 1.0) ** 2

        def b_errors(n):
            return 0.7**n * vec(0.3, 0.1, -0.4)

        fb = forward_backward(
            A=A, B=prob.ingredients["grad"], beta=prob.beta, gamma=0.8, x0=x0, lam=0.9,
            variant="mean", weights=weights, a_errors=a_errors, b_errors=b_errors,
            max_iters=steps, stop_residual=0.0,
        ).config
        cases = {"fb": fb}
        for layer in (1, 2):
            model = GeometricError(0.6, vec(0.2, -0.1, 0.3), layer=layer)
            cases[f"fb-geometric{layer}"] = dataclasses.replace(fb, errors=model)
        if weights.mann_product_bound() > 0.0:
            cases["pr"] = peaceman_rachford(
                A, B, gamma=1.0, weights=weights, x0=x0, a_errors=a_errors,
                b_errors=b_errors, max_iters=steps, stop_residual=0.0,
            ).config
            cases["km"] = krasnoselskii_mann(
                linear_operator(-np.eye(3), alpha=1.0), x0=x0,
                variant="mean", weights=weights, errors=a_errors, max_iters=steps,
                stop_residual=0.0,
            ).config
        return cases

    @pytest.mark.parametrize("weights", [
        memoryless(), window(2), window(3), cesaro(), inertial(EtaSchedule(kind="zero")),
    ], ids=["memoryless", "window2", "window3", "cesaro", "inertial-zero"])
    def test_partial_sums_are_the_cumsum_of_the_runs_thetas(self, weights):
        # chi_n = 1 for a nonnegative family, and the check reads the run's errors
        cases = self.thetas_cases(weights)
        assert ("pr" in cases) == (weights.family == "window")
        for name, cfg in cases.items():
            trace = run(cfg)
            assert trace.n_steps == cfg.max_iters, name
            sums = error_budget_check(cfg, cfg.max_iters).partial_sums[: cfg.max_iters]
            assert sums.tobytes() == np.cumsum(trace.thetas).tobytes(), name

    def test_a_float32_error_is_measured_in_float64_by_the_run_and_the_budget(self):
        value = np.array([0.1, 0.2, 0.3], dtype=np.float32)
        cfg = IterationConfig(
            stacks=compose([prox_l1(1.0)]), weights=memoryless(),
            relaxation=constant_relaxation(1.0), x0=vec(3.0, -2.0, 0.5),
            errors=SequenceError([lambda n: value]), max_iters=3, stop_residual=0.0,
        )
        trace = run(cfg)
        assert trace.thetas[0] == norm(value.astype(np.float64)) == 0.37416575022665244
        sums = error_budget_check(cfg, 3).partial_sums[:3]
        assert sums.tobytes() == np.cumsum(trace.thetas).tobytes()

    def test_a_non_finite_float32_error_is_rejected_as_a_configuration_error(self):
        cfg = IterationConfig(
            stacks=compose([prox_l1(1.0)]), weights=memoryless(),
            relaxation=constant_relaxation(1.0), x0=vec(3.0, -2.0),
            errors=SequenceError([lambda n: np.array([np.nan, 0.0], dtype=np.float32)]),
            max_iters=3, stop_residual=0.0,
        )
        with pytest.raises(ConfigurationError, match="non-finite"):
            run(cfg)

    @pytest.mark.parametrize("eta", [
        EtaSchedule(kind="nesterov", tau=3.0),
        EtaSchedule(kind="custom", eta=0.5, fn=lambda n: 0.0 if n % 3 == 0 else 0.4),
    ], ids=["nesterov", "custom"])
    def test_inertial_partial_sums_are_the_running_sum_in_term_order(self, eta):
        # S_N adds chi_n * lambda_n * sum_i ||e_{i,n}|| in order, as a Python
        # running sum does; the tail is S_H - S_{(3 H) // 4}
        weights = inertial(eta)
        stack = compose([prox_l1(1.0), gradient_step(0.7, lambda x: x - 2.0, beta=1.0)])
        model = SequenceError([lambda n: vec(0.3 / (n + 1.0)), lambda n: vec(0.7**n, 0.1)[:1]])
        cfg = IterationConfig(
            stacks=stack, weights=weights, relaxation=constant_relaxation(0.9),
            x0=vec(1.0), errors=model, max_iters=10,
        )
        horizon = 41
        acc, expected = 0.0, []
        for n in range(horizon + 1):
            e1, e2 = model.errors_for(n)
            acc += chi_value(weights, n).value * 0.9 * (norm(e1) + norm(e2))
            expected.append(acc)
        report = error_budget_check(cfg, horizon)
        assert report.partial_sums.tobytes() == np.array(expected).tobytes()
        assert report.tail_increment == acc - expected[(3 * horizon) // 4]

    def test_inertial_with_errors_and_nonunit_lambda_flagged(self):
        weights = inertial(EtaSchedule(kind="constant", eta=0.3))
        cfg = self.base_config(weights, GeometricError(0.5, vec(1.0)), lam=0.9)
        report = error_budget_check(cfg, 30)
        assert any("unsupported-regime" in f for f in report.flags)


WEIGHT_FAMILIES = {
    "memoryless": memoryless(),
    "window1": window(1),
    "window2": window(2),
    "window5": window(5),
    "cesaro": cesaro(),
    "nesterov": inertial(EtaSchedule(kind="nesterov", tau=2.0)),
    "constant_eta": inertial(EtaSchedule(kind="constant", eta=0.4)),
    "custom_eta": inertial(EtaSchedule(kind="custom", eta=0.5,
                                       fn=lambda n: 0.0 if n % 3 == 0 else 0.3)),
}


class TestDistancesWhereRead:
    """The run measures no distance; ``dist_to_ref`` measures the orbit when
    it is read, bit for bit each step's ``norm``."""

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from([1, 2, 3, 17, 1000, 4097]),
           family=st.sampled_from(sorted(WEIGHT_FAMILIES)),
           steps=st.integers(0, 24), stop=st.sampled_from([0.0, 1e-3, 0.5]),
           rows_per_block=st.sampled_from([None, 1, 2, 5]),
           scale=st.sampled_from([1.0, 1e-160, 1e150]), seed=st.integers(0, 2**32 - 1))
    def test_dist_to_ref_is_each_steps_norm(self, dim, family, steps, stop, rows_per_block,
                                            scale, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-3.0, 3.0, dim) * scale
        stack = compose([prox_l1(0.5 * scale), gradient_step(0.7, lambda x: x - a, beta=1.0)])
        cfg = IterationConfig(
            stacks=stack, weights=WEIGHT_FAMILIES[family], relaxation=constant_relaxation(0.9),
            x0=rng.standard_normal(dim) * scale, max_iters=steps, stop_residual=stop * scale,
            reference=rng.standard_normal(dim) * scale,
        )
        patches = {}
        if rows_per_block is not None:
            # a run's points then span many blocks, whose first one is one row
            patches = {"BLOCK_FLOATS": rows_per_block * dim, "FIRST_BLOCK_FLOATS": dim}
        with pytest.MonkeyPatch.context() as mp:
            for name, value in patches.items():
                mp.setattr(space, name, value)
            trace = run(cfg)
            dists = trace.dist_to_ref
        ref = as_vector(cfg.reference)
        expected = array("d", [norm(trace.points[n] - ref) for n in range(trace.n_steps)])
        assert dists.tobytes() == expected.tobytes()

    def test_a_run_with_a_reference_measures_no_distance(self, monkeypatch):
        def no_distances(*args):
            raise AssertionError("the run measured a distance")

        ref = vec(1.5, -0.5)
        for family in WEIGHT_FAMILIES.values():
            cfg = IterationConfig(
                stacks=compose([prox_l1(0.5), gradient_step(0.7, lambda x: x - 2.0, beta=1.0)]),
                weights=family, relaxation=constant_relaxation(0.9), x0=vec(3.0, -1.0),
                max_iters=30, stop_residual=0.0, reference=ref,
            )
            with monkeypatch.context() as mp:
                mp.setattr(space, "row_distances", no_distances)
                trace = run(cfg)
            expected = array("d", [norm(trace.points[n] - ref) for n in range(30)])
            assert trace.dist_to_ref.tobytes() == expected.tobytes()

    def test_layer_and_recorder_warnings_reach_the_caller(self):
        # every third point overflows its distance; the layer and the recorder
        # warn the caller at each step, trace.flags holds the numpy events of
        # the plain loop, and no distance warning joins either
        def far(x):
            warnings.warn(f"layer {x[0]:.3g}")
            return x * -2.0 if abs(x[0]) < 1e300 else x * 0.5

        def recorder(n, xbar, errors_n):
            warnings.warn(f"recorder {n}")
            return {}

        cfg = IterationConfig(
            stacks=compose([AveragedOperator(fn=far, alpha=1.0)]), weights=memoryless(),
            relaxation=constant_relaxation(1.0), x0=vec(3e307), max_iters=7, stop_residual=0.0,
            reference=vec(-1e308), aux_recorder=recorder,
        )
        with pytest.warns(UserWarning) as warned:
            trace = run(cfg)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x = vec(3e307)
            for n in range(7):
                step = far(x) - x
                norm(step)
                x_next = x + step
                recorder(n, x, None)
                x = x_next
        with np.errstate(over="ignore"):
            dists = [norm(p - vec(-1e308)) for p in trace.points[:7]]
        assert any(not math.isfinite(d) for d in dists)
        assert trace.dist_to_ref.tolist() == dists
        assert [str(w.message) for w in warned] == [
            str(w.message) for w in caught if w.category is UserWarning
        ]
        assert len(warned) == 14
        assert trace.flags == [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert trace.flags == ["overflow encountered in dot"] * 7


def plain_divergence(config):
    """``(n, message)`` of the first divergence of the plain loop with each
    step's checks as a separate kernel made them: ``affine_combine`` names a
    non-finite row, then a non-finite ``x_{n+1}`` names its step."""
    orbit = [as_vector(config.x0)]
    stack = config.stacks
    for n in range(config.max_iters):
        try:
            xbar = affine_combine(config.weights.row(n), orbit)
        except NumericalDivergence as exc:
            return exc.iteration, str(exc)
        lam = relaxation_at(config.relaxation, n, stack.phi)
        step = apply_stack(stack, xbar, config.errors.errors_for(n)).value - xbar
        x = xbar + (step if lam == 1.0 else lam * step)
        if not np.all(np.isfinite(x)):
            return n, f"iterate became non-finite at iteration {n}"
        orbit.append(x)
    return None


class TestFinitenessFromTheResidual:
    """A step without errors whose ``lambda_n * r_n`` is below ``engine.FINITE_ADDEND``
    tests no entry; every divergence still raises at the same n, with the same message."""

    @staticmethod
    def counted(config):
        """``config`` whose layers, error model and recorder log each call's step."""
        calls = {"layers": 0, "errors": [], "recorder": []}

        def wrap(op):
            def fn(x):
                calls["layers"] += 1
                return op.fn(x)

            return AveragedOperator(fn=fn, alpha=op.alpha, name=op.name)

        class Logged(ErrorModel):
            layers = config.errors.layers

            def errors_for(self, n):
                calls["errors"].append(n)
                return config.errors.errors_for(n)

        def recorder(n, xbar, errors_n):
            calls["recorder"].append(n)
            return {}

        logged = dataclasses.replace(
            config, stacks=compose([wrap(op) for op in config.stacks.layers]),
            errors=Logged(), aux_recorder=recorder,
        )
        return logged, calls

    def assert_same_divergence(self, config):
        expected = plain_divergence(config)
        assert expected is not None
        n, message = expected
        for reference in (None, np.zeros(as_vector(config.x0).size)):
            logged, calls = self.counted(dataclasses.replace(config, reference=reference))
            with pytest.raises(NumericalDivergence) as err:
                run(logged)
            assert (err.value.iteration, str(err.value)) == (n, message)
            # the layers see the divergent step's xbar_n once, and nothing runs after it
            assert calls["layers"] == (n + 1) * logged.stacks.m
            assert calls["errors"] == list(range(n + 1))
            assert calls["recorder"] == list(range(n))
        return n, message

    @pytest.mark.parametrize("family", ["window11", "nesterov", "constant_eta"])
    @pytest.mark.parametrize("lam", [1.0, 0.5])
    def test_a_non_finite_mean_names_its_row(self, family, lam):
        if family == "window11":
            # eleven points at DBL_MAX: 11 * fl(DBL_MAX / 11) rounds past it
            big = np.finfo(np.float64).max
            layer = AveragedOperator(fn=lambda x: np.full_like(x, big), alpha=1.0)
            weights, x0 = window(11), vec(big, 1.0)
        else:
            layer = linear_operator(2.0 * np.eye(2), alpha=1.0)
            weights = inertial(EtaSchedule(kind="nesterov", tau=2.0) if family == "nesterov"
                               else EtaSchedule(kind="constant", eta=0.9))
            x0 = vec(1.5, 1.0)  # its extrapolation overflows before x_n (found by search)
        cfg = IterationConfig(
            stacks=compose([layer]), weights=weights, relaxation=constant_relaxation(lam),
            x0=x0, max_iters=5000, stop_residual=0.0,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            n, message = self.assert_same_divergence(cfg)
        assert message == f"affine combination at row {n} is non-finite"

    @pytest.mark.parametrize("lam", [1e5, 1e200])
    @pytest.mark.parametrize("family", ["memoryless", "window2", "cesaro", "nesterov"])
    def test_a_huge_relaxation_overflows_the_iterate_but_not_the_residual(self, family, lam):
        # phi = 1e-300, so lambda_n may reach 1e300; r_n = |x_n| stays finite
        # while x_{n+1} = (1 + lambda_n) x_n overflows
        doubling = AveragedOperator(fn=lambda x: x + x, alpha=1e-300)
        cfg = IterationConfig(
            stacks=compose([doubling]), weights=WEIGHT_FAMILIES[family],
            relaxation=constant_relaxation(lam), x0=vec(1.0, -3.0), max_iters=500,
            stop_residual=0.0,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            if family == "cesaro":
                # cesaro's running sum is not affine_combine's; its first
                # non-finite iterate is a step whose residual is finite
                with pytest.raises(NumericalDivergence) as err:
                    run(cfg)
                assert str(err.value) == f"iterate became non-finite at iteration {err.value.iteration}"
                return
            n, message = self.assert_same_divergence(cfg)
        assert message == f"iterate became non-finite at iteration {n}"

    @pytest.mark.parametrize("family", ["memoryless", "window2", "nesterov"])
    def test_a_step_whose_perturbed_chain_alone_overflows(self, family):
        # the clean chain and its residual stay finite; e_{1,3} pushes the
        # perturbed value past DBL_MAX
        def e1(n):
            return vec(1.79e308, 0.0) if n == 3 else None

        half = linear_operator(0.5 * np.eye(2), alpha=0.75)
        cfg = IterationConfig(
            stacks=compose([half]), weights=WEIGHT_FAMILIES[family],
            relaxation=constant_relaxation(1.0), x0=vec(1e308, 1.0), max_iters=20,
            stop_residual=0.0, errors=SequenceError([e1]),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            n, message = self.assert_same_divergence(cfg)
        assert (n, message) == (3, "iterate became non-finite at iteration 3")

    def test_an_error_free_step_makes_no_numpy_call_for_finiteness_or_distance(self, monkeypatch):
        checks, passes = [], []
        monkeypatch.setattr(engine, "all_finite", lambda v: checks.append(1) or True)
        monkeypatch.setattr(engine, "apply_stack", lambda *a: passes.append(1))
        stack = compose([prox_l1(0.5), gradient_step(0.7, lambda x: x - 2.0, beta=1.0)])
        for family in WEIGHT_FAMILIES.values():
            cfg = IterationConfig(
                stacks=stack, weights=family, relaxation=constant_relaxation(0.9),
                x0=vec(3.0, -1.0), max_iters=30, stop_residual=0.0, reference=vec(1.5, 1.5),
            )
            trace = run(cfg)
            assert trace.n_steps == 30 and len(trace.dist_to_ref) == 30
        assert checks == [] and passes == []


BIG = vec(1e200, 1e200)


def flag_config(loud, steps=5, recorder=None):
    """A memoryless run of ``x -> x / 2`` whose layer overflows a dot product
    at each step when ``loud``."""

    def halve(x):
        if loud:
            BIG.dot(BIG)
        return x * 0.5

    return IterationConfig(
        stacks=compose([AveragedOperator(fn=halve, alpha=0.75)]), weights=memoryless(),
        relaxation=constant_relaxation(1.0), x0=vec(1.0), max_iters=steps,
        stop_residual=0.0, aux_recorder=recorder,
    )


class TestFlags:
    """``trace.flags`` comes from numpy's error state in the run's thread."""

    def test_two_threads_each_keep_their_own_flags(self):
        # more threads than the two cores of a small host: two overflow a
        # dot product at each step, one between them is quiet
        steps = 3000
        loud = ["overflow encountered in dot"] * steps
        expected = [loud, [], loud]
        configs = [flag_config(True, steps), flag_config(False, steps), flag_config(True, steps)]
        assert [run(cfg).flags for cfg in configs] == expected
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                traces = [None] * len(configs)

                def solve(k):
                    traces[k] = run(configs[k])

                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    threads = [threading.Thread(target=solve, args=(k,)) for k in range(3)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert [trace.flags for trace in traces] == expected
                assert caught == []
        finally:
            sys.setswitchinterval(interval)

    def test_the_callers_state_is_restored_on_each_exit(self):
        def recorder(n, xbar, errors_n):
            return {"x": xbar} if n < 2 else {"y": xbar}

        diverging = IterationConfig(
            stacks=compose([AveragedOperator(fn=lambda x: x * 1e300, alpha=1.0)]),
            weights=memoryless(), relaxation=constant_relaxation(1.0), x0=vec(1.0),
            max_iters=5, stop_residual=0.0,
        )

        def callback(kind, flag):
            pass

        with np.errstate(call=callback):
            filters, modes = list(warnings.filters), np.geterr()
            assert run(flag_config(True)).flags == ["overflow encountered in dot"] * 5
            with pytest.raises(NumericalDivergence):
                run(diverging)
            with pytest.raises(ConfigurationError, match="aux_recorder keys at n=2"):
                run(flag_config(True, recorder=recorder))
            assert list(warnings.filters) == filters
            assert np.geterr() == modes
            assert np.geterrcall() is callback

    def test_a_callers_raise_mode_raises(self):
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow encountered in dot"):
                run(flag_config(True))

    def test_a_callers_ignore_mode_leaves_no_flag(self):
        with np.errstate(over="ignore"):
            assert run(flag_config(True)).flags == []

    def test_a_callers_callback_receives_the_events(self):
        events = []
        with np.errstate(over="call", call=lambda kind, flag: events.append(kind)):
            trace = run(flag_config(True))
        assert trace.n_steps == 5
        assert events == ["overflow"] * 5
        assert trace.flags == []

    def test_a_callers_call_mode_without_a_callback_raises_name_error(self):
        # numpy's own error for "call" with no callback, from the first event
        with np.errstate(over="call", call=None):
            with pytest.raises(NameError, match="no function found"):
                BIG.dot(BIG)
            with pytest.raises(NameError, match="^python callback specified for overflow but "
                                                "no function found.$"):
                run(flag_config(True))
            assert np.geterrcall() is None

    def test_a_callers_log_mode_is_logged_into_the_flags(self):
        class Log:
            def __init__(self):
                self.lines = []

            def write(self, message):
                self.lines.append(message)

        caller_log = Log()
        with np.errstate(over="log", call=caller_log):
            trace = run(flag_config(True))
        assert trace.flags == ["overflow encountered in dot"] * 5
        assert caller_log.lines == []

    def test_underflow_stays_ignored(self):
        tiny = vec(1e-200)
        cfg = IterationConfig(
            stacks=compose([AveragedOperator(fn=lambda x: x * tiny * tiny, alpha=1.0)]),
            weights=memoryless(), relaxation=constant_relaxation(1.0), x0=vec(1.0),
            max_iters=3, stop_residual=0.0,
        )
        assert np.geterr()["under"] == "ignore"
        assert run(cfg).flags == []
