import re

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
    NumericalDivergence,
    SequenceError,
    affine_combine,
    cesaro,
    chi_value,
    compose,
    constant_relaxation,
    error_budget_check,
    gradient_step,
    inertial,
    linear_operator,
    memoryless,
    prox_l1,
    run,
    window,
)

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
        for n in range(trace.n_steps):
            explicit = affine_combine(cesaro().row(n), trace.points)
            assert np.linalg.norm(trace.xbars[n] - explicit) <= 1e-12

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
                assert xbar is trace.points[n]
            else:
                assert xbar.tobytes() == affine_combine(weights.row(n), trace.points).tobytes()


class TestResidualModes:
    def test_synthetic_errors_keep_exact_residual(self):
        stack = compose([prox_l1(1.0)])
        cfg = IterationConfig(
            stacks=stack, weights=memoryless(), relaxation=constant_relaxation(1.0),
            x0=vec(3.0), errors=GeometricError(0.5, vec(1.0)), max_iters=5,
            stop_residual=0.0,
        )
        trace = run(cfg)
        assert set(trace.residual_kinds) == {"exact"}
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
        assert set(trace.residual_kinds) == {"exact"}

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
        assert listed.thetas == arrays.thetas == [0.5**n for n in range(5)]

    def test_genuine_errors_marked_approximate(self):
        stack = compose([prox_l1(1.0)])
        cfg = IterationConfig(
            stacks=stack, weights=memoryless(), relaxation=constant_relaxation(1.0),
            x0=vec(3.0), errors=GeometricError(0.5, vec(1.0)), max_iters=5,
            stop_residual=0.0, synthetic_errors=False,
        )
        trace = run(cfg)
        assert set(trace.residual_kinds) == {"approximate"}


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
        # a finite 1-D float64 array is its own norm; every other value goes
        # through as_vector, with its value or its message
        model = SequenceError([lambda n: value])
        if isinstance(expected, str):
            with pytest.raises(ConfigurationError, match=re.escape(expected)):
                model.budget(0, 1)
        else:
            with np.errstate(over="ignore"):  # the overflow case's dot
                assert model.budget(0, 1) == expected

    def test_partial_sums_add_each_layers_budget_in_order(self):
        # the sums and flags of the per-n generator sum over layers 1..m, with
        # one budget call per (n, i), for the three kinds of error model
        class Decaying(ErrorModel):
            layers = 2

            def __init__(self):
                self.calls = []

            def budget(self, n, i):
                self.calls.append((n, i))
                return 0.3 * i / (n + 1.0) ** 2

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
                    acc += chi_n * lam * sum(model.budget(n, i) for i in (1, 2))
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
                    assert model.calls == [(n, i) for n in range(horizon + 1) for i in (1, 2)]

    def test_inertial_with_errors_and_nonunit_lambda_flagged(self):
        weights = inertial(EtaSchedule(kind="constant", eta=0.3))
        cfg = self.base_config(weights, GeometricError(0.5, vec(1.0)), lam=0.9)
        report = error_budget_check(cfg, 30)
        assert any("unsupported-regime" in f for f in report.flags)
