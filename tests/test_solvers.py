import dataclasses
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affiter import (
    AveragedOperator,
    ConfigurationError,
    DegenerateSelectionWarning,
    EtaSchedule,
    GeometricError,
    InvalidScheduleError,
    LayerStack,
    MonotoneMap,
    catalog,
    error_budget_check,
    forward_backward,
    inertial,
    krasnoselskii_mann,
    linear_operator,
    memoryless,
    normal_cone,
    peaceman_rachford,
    polyak_subgradient,
    projector,
    run_certificates,
    window,
)
from affiter import engine, solvers
from affiter.space import norm


def vec(*xs):
    return np.array(xs, dtype=np.float64)


class TestPeacemanRachford:
    def problem(self):
        return catalog("l1_quadratic", a=1.0)

    def test_converges_to_zero_of_the_sum(self):
        # zer(A + B) = {0}: the subgradient of |.| at 0 contains 1 = -B(0)
        prob = self.problem()
        preset = peaceman_rachford(
            prob.ingredients["A"], prob.ingredients["B"], gamma=1.0,
            weights=window(2), x0=vec(0.0), max_iters=50, stop_residual=0.0,
        )
        y, trace = preset.solve()
        assert abs(y[0]) <= 1e-8
        assert trace.n_steps == 50

    def test_threads_solving_one_preset_each_get_the_serial_run(self):
        # the reflectors keep their resolvent values per thread, and numpy
        # keeps each thread's error state, so each run logs its own flags
        prob = catalog("l1_quadratic", a=[2.0, -0.3, 0.7])
        preset = peaceman_rachford(
            prob.ingredients["A"], prob.ingredients["B"], gamma=0.9, weights=window(2),
            x0=vec(-1.0, 0.5, 3.0), b_errors=lambda n: vec(0.01, -0.02, 0.005) / (n + 1.0),
            max_iters=1500, stop_residual=0.0,
        )

        def fields(trace):
            return ([p.tobytes() for p in trace.points],
                    [(r["y"].tobytes(), r["z"].tobytes()) for r in trace.aux], trace.flags)

        expected = fields(preset.solve()[1])
        traces = [None] * 3  # more threads than the two cores of a small host

        def solve(k):
            traces[k] = preset.solve()[1]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(k,)) for k in range(len(traces))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for trace in traces:
            assert fields(trace) == expected

    def test_extractor_matches_inner_resolvent(self):
        prob = self.problem()
        preset = peaceman_rachford(
            prob.ingredients["A"], prob.ingredients["B"], gamma=1.0,
            weights=window(2), x0=vec(0.3), max_iters=20, stop_residual=0.0,
        )
        y, trace = preset.solve()
        for n, xbar in enumerate(trace.xbars):
            jb = prob.ingredients["B"].resolvent(1.0, xbar)
            assert np.array_equal(trace.aux[n]["y"], jb)

    def test_three_line_form_equivalence(self):
        # engine update must reproduce xbar + 2 (z - y) from the aux records
        prob = self.problem()
        preset = peaceman_rachford(
            prob.ingredients["A"], prob.ingredients["B"], gamma=1.0,
            weights=window(2), x0=vec(0.7), max_iters=15, stop_residual=0.0,
            a_errors=lambda n: vec(0.5**n * 0.1), b_errors=lambda n: vec(0.5**n * -0.05),
        )
        _, trace = preset.solve()
        for n, xbar in enumerate(trace.xbars):
            three_line = xbar + 2.0 * (trace.aux[n]["z"] - trace.aux[n]["y"])
            assert np.linalg.norm(trace.points[n + 1] - three_line) <= 1e-12

    EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1.7e308]

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(EDGES)),
        st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGES)),
        st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGES)),
    ), min_size=1, max_size=6))
    def test_reflectors_and_layer_errors_double_by_addition(self, rows):
        # j + j and e + e are 2.0 * j and 2.0 * e bit for bit: ±0, subnormals,
        # doubles that overflow, and (for the resolvent values) inf and NaN
        j, x, e = (np.array(column) for column in zip(*rows))
        given_resolvent = MonotoneMap(name="given", resolvent=lambda gamma, y: j)
        preset = peaceman_rachford(
            given_resolvent, given_resolvent, gamma=1.0, weights=window(2), x0=x,
            a_errors=lambda n: e, b_errors=[e],
        )
        with np.errstate(all="ignore"):
            reflected = [layer.fn(x) for layer in preset.config.stacks.layers]
            expected, twice = 2.0 * j - x, 2.0 * e
            layer_errors = preset.config.errors.errors_for(0)
        assert [r.tobytes() for r in reflected] == [expected.tobytes()] * 2
        assert [v.tobytes() for v in layer_errors] == [twice.tobytes()] * 2

    def test_indicator_fixed_start_is_constant(self):
        # A = B = normal cone of the same set and a feasible start: nothing moves
        ball = normal_cone("ball", center=[0.0, 0.0], radius=1.0)
        preset = peaceman_rachford(
            ball, ball, gamma=1.0, weights=window(2),
            x0=vec(0.25, 0.1), max_iters=10, stop_residual=0.0,
        )
        y, trace = preset.solve()
        for p in trace.points:
            assert np.array_equal(p, vec(0.25, 0.1))
        assert np.array_equal(y, vec(0.25, 0.1))

    def test_summable_errors_preserve_limit_with_finite_budget(self):
        prob = self.problem()
        u = 1.0
        preset = peaceman_rachford(
            prob.ingredients["A"], prob.ingredients["B"], gamma=1.0,
            weights=window(2), x0=vec(0.0), max_iters=80, stop_residual=0.0,
            a_errors=lambda n: vec(0.5**n * u), b_errors=lambda n: vec(0.5**n * u),
        )
        y, trace = preset.solve()
        assert abs(y[0]) <= 1e-6
        report = error_budget_check(preset.config, 100)
        # declared budget per iteration is 2 (||a_n|| + ||b_n||), summing to 8u
        assert report.total == pytest.approx(8.0 * u, abs=1e-9)

    def test_error_sequences_called_once_per_step(self):
        prob = self.problem()
        a_calls, b_calls = [], []

        def a_errors(n):
            a_calls.append(n)
            return vec(0.5**n * 0.1)

        def b_errors(n):
            b_calls.append(n)
            return vec(0.5**n * -0.05)

        preset = peaceman_rachford(
            prob.ingredients["A"], prob.ingredients["B"], gamma=1.0,
            weights=window(2), x0=vec(0.7), max_iters=30, stop_residual=0.0,
            a_errors=a_errors, b_errors=b_errors,
        )
        _, trace = preset.solve()
        assert trace.n_steps == 30
        assert a_calls == list(range(30))
        assert b_calls == list(range(30))

    def test_stack_is_the_two_reflectors(self):
        prob = self.problem()
        preset = peaceman_rachford(
            prob.ingredients["A"], prob.ingredients["B"], gamma=0.5,
            weights=window(2), x0=vec(0.3), b_errors=lambda n: vec(0.5**n),
        )
        stack = preset.config.stacks
        assert stack.m == 2 and stack.phi == 1.0
        assert [layer.name for layer in stack.layers] == [
            "reflector(l1_subdifferential(weight=1.0), gamma=0.5)",
            "reflector(affine_monotone, gamma=0.5)",
        ]

    def test_b_errors_cost_two_a_and_one_b_resolvent_per_step(self):
        # b_n perturbs the inner layer, so the perturbed and the clean chain of
        # the one pass share J_{gamma B}(xbar_n) and each apply R_{gamma A}
        # (A: 2, B: 1); the recorder reads both resolvents from the step's
        # pass and calls neither again
        prob = self.problem()
        calls = {"A": 0, "B": 0}

        def counted(key):
            mono = prob.ingredients[key]

            def resolvent(g, x):
                calls[key] += 1
                return mono.resolvent(g, x)

            return dataclasses.replace(mono, resolvent=resolvent)

        preset = peaceman_rachford(
            counted("A"), counted("B"), gamma=1.0, weights=window(2), x0=vec(0.7),
            b_errors=lambda n: vec(0.5**n * -0.05), max_iters=40, stop_residual=0.0,
        )
        preset.solve()
        assert calls == {"A": 2 * 40, "B": 1 * 40}

    def test_recorder_reads_the_resolvents_of_the_steps_pass(self):
        # y_n is J_B(xbar_n) + b_n; z_n is J_A at the perturbed chain's input
        # u_n = R_B(xbar_n) + 2 b_n, which is 2 y_n - xbar_n up to rounding
        prob = catalog("l1_quadratic", a=[2.0, -0.3, 0.7])
        A, B, gamma = prob.ingredients["A"], prob.ingredients["B"], 0.6
        rng = np.random.default_rng(7)
        a_n = rng.standard_normal((40, 3)) * 0.1
        b_n = rng.standard_normal((40, 3)) * 0.1
        _, trace = peaceman_rachford(
            A, B, gamma=gamma, weights=window(2), x0=vec(-1.0, 0.5, 3.0),
            a_errors=lambda n: 0.9**n * a_n[n], b_errors=lambda n: 0.9**n * b_n[n],
            max_iters=40, stop_residual=0.0,
        ).solve()
        rounded = 0
        for n, xbar in enumerate(trace.xbars):
            a, b = 0.9**n * a_n[n], 0.9**n * b_n[n]
            jb = B.resolvent(gamma, xbar)
            y, z = trace.aux[n]["y"], trace.aux[n]["z"]
            assert y.tobytes() == (jb + b).tobytes()
            assert z.tobytes() == (A.resolvent(gamma, (2.0 * jb - xbar) + 2.0 * b) + a).tobytes()
            three_line = A.resolvent(gamma, 2.0 * y - xbar) + a
            assert np.max(np.abs(z - three_line)) <= 1e-15
            rounded += z.tobytes() != three_line.tobytes()
        assert rounded > 0  # the two forms of the input do round apart here

    @pytest.mark.parametrize("layer", [1, 2])
    def test_error_model_on_the_config_keeps_the_three_line_form(self, layer):
        # what affiter run does with a config's errors section: the model
        # perturbs a reflector, and y_n, z_n take half its error as b_n or a_n
        prob = catalog("l1_quadratic", a=[2.0, -0.3, 0.7])
        preset = peaceman_rachford(
            prob.ingredients["A"], prob.ingredients["B"], gamma=1.0, weights=window(2),
            x0=vec(-1.0, 0.5, 3.0), max_iters=20, stop_residual=0.0,
        )
        preset.config.errors = GeometricError(0.5, [0.1, 0.0, 0.0], layer=layer)
        _, trace = preset.solve()
        assert [norms[layer - 1] for norms in trace.error_norms[:3]] == [0.1, 0.05, 0.025]
        for n, xbar in enumerate(trace.xbars):
            three_line = xbar + 2.0 * (trace.aux[n]["z"] - trace.aux[n]["y"])
            assert np.linalg.norm(trace.points[n + 1] - three_line) <= 1e-15

    def test_catalog_and_steps_at_large_d_stay_o_of_d_in_memory(self):
        # the catalog's B is the scalar 1 and its resolvent the closed-form
        # diagonal one: no d x d matrix is built at d = 1e5 (np.eye would be 80 GB)
        d, steps = 100_000, 5
        tracemalloc.start()
        try:
            prob = catalog("l1_quadratic", a=np.linspace(-3.0, 3.0, d))
            _, trace = peaceman_rachford(
                prob.ingredients["A"], prob.ingredients["B"], gamma=1.0, weights=window(2),
                x0=np.zeros(d), max_iters=steps, stop_residual=0.0,
            ).solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.n_steps == steps
        assert peak <= 8 * (steps + 1) * 8 * d

    def test_error_layer_below_the_stack_raises_from_solve_before_resolvent_calls(self):
        prob = self.problem()
        calls = []

        def resolvent(g, x):
            calls.append(1)
            return prob.ingredients["A"].resolvent(g, x)

        preset = peaceman_rachford(
            dataclasses.replace(prob.ingredients["A"], resolvent=resolvent),
            prob.ingredients["B"], gamma=1.0, weights=window(2), x0=vec(0.7),
        )
        preset.config.errors = GeometricError(0.5, vec(0.1), layer=3)
        with pytest.raises(ConfigurationError, match="perturbs layer 3, but the stack has 2"):
            preset.solve()
        assert calls == []

    def test_theta_is_the_sum_of_the_doubled_error_norms(self):
        prob = catalog("l1_quadratic", a=[2.0, -0.3, 0.7])
        rng = np.random.default_rng(4)
        a_n = rng.standard_normal((30, 3)) * 0.1
        b_n = rng.standard_normal((30, 3)) * 0.1
        preset = peaceman_rachford(
            prob.ingredients["A"], prob.ingredients["B"], gamma=0.6, weights=window(2),
            x0=vec(-1.0, 0.5, 3.0), a_errors=lambda n: 0.7**n * a_n[n],
            b_errors=lambda n: 0.8**n * b_n[n], max_iters=30, stop_residual=0.0,
        )
        _, trace = preset.solve()
        lambdas = trace.lambdas
        for n, theta in enumerate(trace.thetas):
            bound = norm(2.0 * 0.7**n * a_n[n]) + norm(2.0 * 0.8**n * b_n[n])
            assert theta == lambdas[n] * bound

    def test_rejects_families_without_adjacent_mass(self):
        from affiter import cesaro, memoryless

        prob = self.problem()
        for weights in (cesaro(), memoryless()):
            with pytest.raises(ConfigurationError, match="mu_"):
                peaceman_rachford(
                    prob.ingredients["A"], prob.ingredients["B"], gamma=1.0,
                    weights=weights, x0=vec(0.0),
                )


def points_bytes(trace):
    return [p.tobytes() for p in trace.points]


@pytest.mark.parametrize("key", ["a_errors", "b_errors"])
@pytest.mark.parametrize("solver", ["forward_backward", "peaceman_rachford"])
def test_error_callable_returning_a_list_runs_as_its_array(solver, key):
    prob = catalog("l1_quadratic", a=[2.0, -0.3, 0.7])

    def preset(errors):
        if solver == "forward_backward":
            return forward_backward(
                prob.ingredients["A"], prob.ingredients["grad"], prob.beta, 1.0,
                x0=np.zeros(3), max_iters=20, stop_residual=0.0, **{key: errors},
            )
        return peaceman_rachford(
            prob.ingredients["A"], prob.ingredients["B"], 1.0, window(2),
            np.zeros(3), max_iters=20, stop_residual=0.0, **{key: errors},
        )

    listed = preset(lambda n: [0.1 * 0.5**n, 0, 0])
    _, trace = listed.solve()
    _, expected = preset(lambda n: vec(0.1 * 0.5**n, 0.0, 0.0)).solve()
    assert points_bytes(trace) == points_bytes(expected)
    assert trace.thetas == expected.thetas
    assert error_budget_check(listed.config, 19).total == pytest.approx(sum(trace.thetas))


def model_presets(**kwargs):
    """One preset of each builder, with ``kwargs`` passed to every builder."""
    prob = catalog("l1_quadratic", a=[2.0, -0.3, 0.7])
    polyak = catalog("polyak_norm_over_halfspace")
    rotation = catalog("rotation_fixed_point", angle=1.0)
    common = dict(max_iters=25, stop_residual=0.0, **kwargs)
    return {
        "forward_backward": lambda: forward_backward(
            prob.ingredients["A"], prob.ingredients["grad"], prob.beta, 0.8,
            x0=vec(-1.0, 0.5, 3.0), weights=window(2), variant="mean", **common),
        "peaceman_rachford": lambda: peaceman_rachford(
            prob.ingredients["A"], prob.ingredients["B"], 0.9, window(2),
            vec(-1.0, 0.5, 3.0), **common),
        "polyak_subgradient": lambda: polyak_subgradient(
            polyak.ingredients["f"], polyak.ingredients["s"], polyak.theta,
            polyak.ingredients["projector"], x0=vec(3.0, 2.0), **common),
        "krasnoselskii_mann": lambda: krasnoselskii_mann(
            rotation.ingredients["T"], x0=vec(1.0, -0.5), weights=window(2), **common),
    }


@pytest.mark.parametrize("solver", ["forward_backward", "peaceman_rachford",
                                    "polyak_subgradient", "krasnoselskii_mann"])
@pytest.mark.parametrize("layer", [1, 2])
def test_an_error_model_given_to_the_builder_is_the_one_set_on_its_config(solver, layer):
    dim = 2 if solver in ("polyak_subgradient", "krasnoselskii_mann") else 3
    model = GeometricError(0.5, np.linspace(0.1, -0.05, dim), layer=layer)
    given = model_presets(errors=model)[solver]()
    assert given.config.errors is model
    if layer > given.config.stacks.m:
        with pytest.raises(ConfigurationError, match=f"perturbs layer {layer}"):
            given.solve()
        return
    _, trace = given.solve()
    assigned = model_presets()[solver]()
    assigned.config.errors = model
    _, expected = assigned.solve()
    assert points_bytes(trace) == points_bytes(expected)
    assert trace.thetas == expected.thetas
    if trace.aux is not None:
        assert [r["z"].tobytes() for r in trace.aux] == [r["z"].tobytes() for r in expected.aux]


@pytest.mark.parametrize("key", ["a_errors", "b_errors"])
@pytest.mark.parametrize("solver", ["forward_backward", "peaceman_rachford"])
def test_an_error_model_and_error_sequences_are_not_both_given(solver, key):
    kwargs = {"errors": GeometricError(0.5, vec(0.1, 0.0, 0.0)), key: [vec(0.1, 0.0, 0.0)]}
    with pytest.raises(ConfigurationError, match="give an error model or error sequences"):
        model_presets(**kwargs)[solver]()


def test_weights_none_runs_each_presets_default_and_its_own_rows_are_accepted():
    prob = catalog("l1_quadratic", a=[2.0])
    A, grad, B = prob.ingredients["A"], prob.ingredients["grad"], prob.ingredients["B"]
    T = catalog("rotation_fixed_point").ingredients["T"]
    eta = EtaSchedule(kind="constant", eta=0.2)
    fb = dict(A=A, B=grad, beta=1.0, gamma=1.0, x0=vec(0.0))
    km = dict(T=T, x0=vec(1.0, 0.0))
    for weights in (None, "given"):
        cases = [
            (lambda w: peaceman_rachford(A, B, 1.0, w, vec(0.0)), window(2)),
            (lambda w: krasnoselskii_mann(**km, weights=w), window(2)),
            (lambda w: krasnoselskii_mann(**km, variant="memoryless", weights=w), memoryless()),
            (lambda w: krasnoselskii_mann(**km, variant="inertial", eta=eta, lam=0.5,
                                          weights=w), inertial(eta)),
            (lambda w: forward_backward(**fb, variant="inertial", eta=eta, weights=w),
             inertial(eta)),
            (lambda w: forward_backward(**fb, variant="mean", weights=w), memoryless()),
        ]
        for build, default in cases:
            preset = build(default if weights == "given" else None)
            assert preset.config.weights == default


@pytest.mark.parametrize("key", ["a_errors", "b_errors"])
@pytest.mark.parametrize("solver", ["forward_backward", "peaceman_rachford"])
def test_each_error_value_goes_through_error_vector_once(solver, key, monkeypatch):
    # a layer that scales the value (2 e_n, -gamma_n b_n) coerces it first, and
    # SequenceError does not coerce the user's value a second time
    seen = []
    error_vector = engine.error_vector

    def counted(e):
        seen.append(e)
        return error_vector(e)

    monkeypatch.setattr(engine, "error_vector", counted)
    monkeypatch.setattr(solvers, "error_vector", counted)
    returned = []

    def errors(n):
        returned.append(vec(0.1 * 0.5**n, 0.0, 0.0))
        return returned[-1]

    prob = catalog("l1_quadratic", a=[2.0, -0.3, 0.7])
    if solver == "forward_backward":
        preset = forward_backward(
            prob.ingredients["A"], prob.ingredients["grad"], prob.beta, 1.0,
            x0=np.zeros(3), max_iters=20, stop_residual=0.0, **{key: errors},
        )
    else:
        preset = peaceman_rachford(
            prob.ingredients["A"], prob.ingredients["B"], 1.0, window(2),
            np.zeros(3), max_iters=20, stop_residual=0.0, **{key: errors},
        )
    preset.solve()
    error_budget_check(preset.config, 19)
    assert len(returned) == 40
    assert [sum(e is value for e in seen) for value in returned] == [1] * 40


class TestForwardBackward:
    def problem(self):
        return catalog("l1_quadratic", a=2.0)

    def variant_preset(self, variant, **kw):
        prob = self.problem()
        args = dict(
            A=prob.ingredients["A"], B=prob.ingredients["grad"], beta=prob.beta,
            gamma=1.0, x0=vec(0.0), lam=1.0, max_iters=200,
            reference=prob.reference,
        )
        if variant == "mean":
            args["weights"] = window(3)
        if variant == "inertial":
            args["eta"] = EtaSchedule(kind="nesterov", tau=2.0)
        args.update(kw)
        return forward_backward(variant=variant, **args)

    def test_threads_with_their_own_gamma_each_get_their_serial_run(self):
        # gamma_n as the pre-pass read it is kept per thread, so a thread whose
        # callable gamma returns its own value scales b_n by that value
        prob = catalog("l1_quadratic", a=[2.0, -0.3])
        local = threading.local()
        preset = forward_backward(
            A=prob.ingredients["A"], B=prob.ingredients["grad"], beta=prob.beta,
            gamma=lambda n: getattr(local, "gamma", 0.6), x0=vec(-1.0, 0.5),
            b_errors=lambda n: vec(0.01, -0.02) / (n + 1.0), max_iters=3000, stop_residual=0.0,
        )
        gammas = (0.6, 0.9)
        expected = []
        for g in gammas:
            local.gamma = g
            expected.append(preset.solve()[1].thetas.tobytes())
        thetas = [None] * len(gammas)

        def solve(k):
            local.gamma = gammas[k]
            thetas[k] = preset.solve()[1].thetas.tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(k,)) for k in range(len(gammas))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert thetas == expected

    @pytest.mark.parametrize("variant", ["memoryless", "mean", "inertial"])
    def test_reaches_soft_threshold_solution(self, variant):
        preset = self.variant_preset(variant)
        x, trace = preset.solve()
        assert abs(x[0] - 1.0) <= 1e-6
        assert trace.n_steps <= 200

    def test_gradient_residual_vanishes_at_solution(self):
        preset = self.variant_preset("memoryless")
        _, trace = preset.solve()
        grad = self.problem().ingredients["grad"]
        z = self.problem().reference
        assert np.linalg.norm(grad(trace.xbars[-1]) - grad(z)) <= 1e-6

    def test_memoryless_unit_relaxation_residual_identity(self):
        preset = self.variant_preset("memoryless")
        _, trace = preset.solve()
        for n, xbar in enumerate(trace.xbars):
            step_norm = np.linalg.norm(trace.points[n + 1] - xbar)
            assert step_norm == pytest.approx(trace.residuals[n], abs=1e-14)

    def test_2d_problem_with_shorter_steps(self):
        prob = catalog("l1_quadratic", a=[2.0, -0.3])
        preset = forward_backward(
            A=prob.ingredients["A"], B=prob.ingredients["grad"], beta=prob.beta,
            gamma=0.7, x0=vec(0.0, 0.0), lam=1.1, max_iters=400,
            reference=prob.reference,
        )
        x, trace = preset.solve()
        assert np.linalg.norm(x - prob.reference) <= 1e-8

    def test_proximal_point_projects_in_one_step(self):
        cone = normal_cone("nonneg")
        preset = forward_backward(
            A=cone, B=None, beta=None, gamma=1.0, x0=vec(-3.0),
            variant="proximal_point", max_iters=10,
        )
        x, trace = preset.solve()
        assert np.array_equal(trace.points[1], vec(0.0))
        assert np.array_equal(x, vec(0.0))

    def test_gamma_band_enforced(self):
        prob = self.problem()
        with pytest.raises(ConfigurationError, match="gamma"):
            forward_backward(
                A=prob.ingredients["A"], B=prob.ingredients["grad"], beta=1.0,
                gamma=2.5, x0=vec(0.0), epsilon=0.1,
            )

    def test_constant_gamma_builds_one_stack(self):
        assert isinstance(self.variant_preset("memoryless", gamma=0.8).config.stacks, LayerStack)
        provider = self.variant_preset("memoryless", gamma=lambda n: 0.8).config.stacks
        assert callable(provider) and isinstance(provider(3), LayerStack)

    def test_callable_gamma_leaving_band_raises_before_operator_calls(self):
        prob = self.problem()
        calls = []
        A = prob.ingredients["A"]

        def counting(g, x):
            calls.append(1)
            return A.resolvent(g, x)

        preset = forward_backward(
            A=dataclasses.replace(A, resolvent=counting), B=prob.ingredients["grad"],
            beta=1.0, gamma=lambda n: 0.8 if n < 7 else 5.0, x0=vec(0.0), max_iters=20,
        )
        message = "gamma_7 = 5.0 outside the admissible band [0.1, 1.8181818181818181]"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            preset.solve()
        assert calls == []

    def test_lambda_band_enforced(self):
        prob = self.problem()
        with pytest.raises(ConfigurationError, match="cap"):
            forward_backward(
                A=prob.ingredients["A"], B=prob.ingredients["grad"], beta=1.0,
                gamma=1.0, x0=vec(0.0), epsilon=0.1, lam=1.6,
            ).solve()

    def test_inertial_with_errors_rejected_for_unbounded_domain(self):
        prob = self.problem()
        with pytest.raises(ConfigurationError, match="bounded"):
            forward_backward(
                A=prob.ingredients["A"], B=prob.ingredients["grad"], beta=1.0,
                gamma=1.0, x0=vec(0.0), variant="inertial",
                eta=EtaSchedule(kind="nesterov", tau=2.0),
                a_errors=lambda n: vec(0.5**n),
            )

    def test_inertial_with_errors_allowed_for_bounded_domain(self):
        # backward operator with bounded domain and unit relaxation is the
        # one supported error regime under inertial weights
        cone = normal_cone("ball", center=[0.0], radius=2.0)
        preset = forward_backward(
            A=cone, B=lambda x: x - 1.0, beta=1.0, gamma=1.0, x0=vec(0.0),
            variant="inertial", eta=EtaSchedule(kind="constant", eta=0.3),
            lam=1.0, a_errors=lambda n: vec(0.25**n * 0.01), max_iters=150,
        )
        x, _ = preset.solve()
        assert abs(x[0] - 1.0) <= 1e-4

    def test_inertial_errors_check_unit_relaxation_over_whole_horizon(self):
        # unit relaxation for the first 50 steps only is not the unit regime
        cone = normal_cone("ball", center=[0.0], radius=2.0)
        calls = []

        def counting(g, x):
            calls.append(1)
            return cone.resolvent(g, x)

        def forward(x):
            calls.append(1)
            return x - 1.0

        preset = forward_backward(
            A=dataclasses.replace(cone, resolvent=counting), B=forward, beta=1.0,
            gamma=0.8, x0=vec(0.0), variant="inertial",
            eta=EtaSchedule(kind="constant", eta=0.3),
            lam=lambda n: 1.0 if n < 50 else 0.9,
            a_errors=lambda n: vec(0.25**n * 0.01), max_iters=150,
        )
        with pytest.raises(ConfigurationError, match="unit relaxation"):
            preset.solve()
        assert calls == []

    def test_inertial_errors_reject_constant_nonunit_relaxation(self):
        cone = normal_cone("ball", center=[0.0], radius=2.0)
        message = (
            "errors under inertial weights need unit relaxation and a "
            "bounded-domain backward operator; rejected"
        )
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            forward_backward(
                A=cone, B=lambda x: x - 1.0, beta=1.0, gamma=0.8, x0=vec(0.0),
                variant="inertial", eta=EtaSchedule(kind="constant", eta=0.3),
                lam=0.9, a_errors=lambda n: vec(0.25**n * 0.01), max_iters=150,
            )

    def test_inertial_errors_call_lambda_once_per_n(self):
        cone = normal_cone("ball", center=[0.0], radius=2.0)
        lam_calls = []

        def lam(n):
            lam_calls.append(n)
            return 1.0

        preset = forward_backward(
            A=cone, B=lambda x: x - 1.0, beta=1.0, gamma=1.0, x0=vec(0.0),
            variant="inertial", eta=EtaSchedule(kind="constant", eta=0.3),
            lam=lam, a_errors=lambda n: vec(0.25**n * 0.01), max_iters=40,
            stop_residual=0.0,
        )
        preset.solve()
        assert lam_calls == list(range(40))

    def test_callable_gamma_called_once_per_n(self):
        calls = []

        def gamma(n):
            calls.append(n)
            return 0.8

        preset = self.variant_preset("memoryless", gamma=gamma, max_iters=30, stop_residual=0.0)
        assert calls == [0]  # the builder checks gamma_0 at build
        calls.clear()
        preset.solve()
        assert calls == list(range(30))

    def test_callable_gamma_run_stopping_early_is_the_hand_loop(self):
        # a stack per n from the plan, and the residual stop: the orbit equals
        # x <- x + (J_{gamma_n A}(x - gamma_n B x) - x) bit for bit
        prob = catalog("l1_quadratic", a=[2.0, -0.3, 0.7])
        A, grad = prob.ingredients["A"], prob.ingredients["grad"]

        def gamma(n):
            return 0.6 + 0.4 * 0.5**n

        _, trace = forward_backward(
            A=A, B=grad, beta=prob.beta, gamma=gamma, x0=vec(-1.0, 0.5, 3.0),
            lam=1.0, max_iters=500, stop_residual=1e-6,
        ).solve()
        x, points = vec(-1.0, 0.5, 3.0), [vec(-1.0, 0.5, 3.0)]
        for n in range(500):
            g = gamma(n)
            step = A.resolvent(g, x - g * grad(x)) - x
            x = x + 1.0 * step
            points.append(x)
            if np.linalg.norm(step) <= 1e-6:
                break
        assert trace.stop_reason == "residual" and trace.n_steps < 500
        assert points_bytes(trace) == [p.tobytes() for p in points]

    def test_certificates_reuse_the_stacks_the_run_applied(self):
        calls = []

        def gamma(n):
            calls.append(n)
            return 0.8

        preset = self.variant_preset("memoryless", gamma=gamma, max_iters=50, stop_residual=0.0)
        _, trace = preset.solve()
        run_certificates(trace, self.problem().reference, which=("i", "ii", "iii"))
        assert calls == [0] + list(range(50))  # the build's gamma_0, then the pre-pass

    def test_certificates_of_a_zero_step_run_with_callable_gamma(self):
        preset = self.variant_preset("memoryless", gamma=lambda n: 0.8, max_iters=0)
        _, trace = preset.solve()
        reports = run_certificates(trace, self.problem().reference, which=("i", "ii", "iii"))
        assert all(report.slacks.size == 0 for report in reports.values())

    def test_forward_error_reads_b_once_per_n(self):
        b_calls = []

        def b_errors(n):
            b_calls.append(n)
            return vec(0.5**n * 0.01)

        preset = self.variant_preset(
            "memoryless", b_errors=b_errors, max_iters=30, stop_residual=0.0,
        )
        preset.solve()
        assert b_calls == list(range(30))

    def test_forward_error_reads_the_checked_gamma(self):
        calls = []

        def gamma(n):
            calls.append(n)
            return 0.8

        preset = self.variant_preset(
            "memoryless", gamma=gamma, b_errors=lambda n: vec(0.5**n * 0.01),
            max_iters=20, stop_residual=0.0,
        )
        preset.solve()
        assert len(calls) == 21  # gamma_0 at build, then once per n in the pre-pass

    def test_inertial_errors_reject_default_band_cap_relaxation(self):
        # lam=None runs at the fb-band cap (1.54 at gamma=0.8), not at 1
        cone = normal_cone("ball", center=[0.0], radius=2.0)
        with pytest.raises(ConfigurationError, match="unit relaxation"):
            forward_backward(
                A=cone, B=lambda x: x - 1.0, beta=1.0, gamma=0.8, x0=vec(0.0),
                variant="inertial", eta=EtaSchedule(kind="constant", eta=0.3),
                lam=None, a_errors=lambda n: vec(0.25**n * 0.01), max_iters=150,
            )

    @pytest.mark.parametrize("variant", ["memoryless", "proximal_point"])
    def test_inertial_weights_meet_the_errors_rule_whatever_the_variant(self, variant):
        # the rule reads the weights the builder settled on, not the variant's name
        prob = catalog("l1_quadratic", a=[2.0, -0.3])
        message = (
            "errors under inertial weights need unit relaxation and a "
            "bounded-domain backward operator; rejected"
        )
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            forward_backward(
                A=prob.ingredients["A"], B=prob.ingredients["grad"], beta=prob.beta,
                gamma=1.0, x0=vec(0.0, 0.0), variant=variant,
                weights=inertial(EtaSchedule(kind="constant", eta=0.5)),
                a_errors=lambda n: [0.1**n, 0.0], lam=1.5,
            )

    def test_inertial_weights_under_the_memoryless_variant_run_as_the_inertial_variant(self):
        cone = normal_cone("ball", center=[0.0], radius=2.0)
        eta = EtaSchedule(kind="constant", eta=0.3)
        args = dict(A=cone, B=lambda x: x - 1.0, beta=1.0, gamma=1.0, x0=vec(0.0),
                    a_errors=lambda n: vec(0.25**n * 0.01), max_iters=40, stop_residual=0.0)
        by_weights = forward_backward(weights=inertial(eta), lam=1.0, **args).solve()[1]
        by_variant = forward_backward(variant="inertial", eta=eta, lam=1.0, **args).solve()[1]
        assert by_weights.n_steps == by_variant.n_steps == 40
        assert ([p.tobytes() for p in by_weights.points]
                == [p.tobytes() for p in by_variant.points])
        with pytest.raises(ConfigurationError, match="unit relaxation"):
            forward_backward(weights=inertial(eta), lam=lambda n: 1.0 if n < 5 else 0.9,
                             **args).solve()

    def test_zero_eta_inertial_weights_take_errors_as_memoryless_weights_do(self):
        # eta_n = 0 gives the Kronecker rows, so the rule for signed rows does not apply
        prob = self.problem()
        args = dict(A=prob.ingredients["A"], B=prob.ingredients["grad"], beta=prob.beta,
                    gamma=1.0, x0=vec(0.0), lam=0.9, a_errors=lambda n: vec(0.5**n),
                    max_iters=30, stop_residual=0.0)
        zero = forward_backward(variant="inertial", eta=EtaSchedule(kind="zero"), **args)
        plain = forward_backward(variant="memoryless", **args)
        assert ([p.tobytes() for p in zero.solve()[1].points]
                == [p.tobytes() for p in plain.solve()[1].points])

    def test_solve_leaves_caller_reference_untouched(self):
        cone = normal_cone("ball", center=[0.0], radius=2.0)
        reference = [1.0]
        preset = forward_backward(
            A=cone, B=lambda x: x - 1.0, beta=1.0, gamma=1.0, x0=vec(0.0),
            max_iters=20, reference=reference,
        )
        _, trace = preset.solve()
        assert preset.config.reference is reference
        assert preset.config.reference == [1.0]
        assert trace.final_dist_to_ref() <= 1e-8

    def test_custom_eta_leaving_band_after_horizon_builds_and_solves(self):
        # the run never reads eta_n for n >= max_iters
        eta = EtaSchedule(kind="custom", eta=0.3, fn=lambda n: 0.3 if n < 40 else 1.5)
        preset = self.variant_preset("inertial", eta=eta, max_iters=40, stop_residual=0.0)
        _, trace = preset.solve()
        assert trace.n_steps == 40

    def test_custom_eta_leaving_band_raises_from_solve_before_operator_calls(self):
        prob = self.problem()
        calls = []
        A = prob.ingredients["A"]

        def counting(g, x):
            calls.append(1)
            return A.resolvent(g, x)

        eta = EtaSchedule(kind="custom", eta=0.3, fn=lambda n: 1.5 if n == 7 else 0.3)
        preset = self.variant_preset(
            "inertial", A=dataclasses.replace(A, resolvent=counting), eta=eta, max_iters=40,
        )
        message = "custom eta value 1.5 at n=7 outside [0, 1)"
        with pytest.raises(InvalidScheduleError, match=re.escape(message)):
            preset.solve()
        assert calls == []

    def test_mean_variant_rejects_inertial_weights(self):
        from affiter import inertial as inertial_weights

        prob = self.problem()
        with pytest.raises(ConfigurationError, match="nonnegative"):
            forward_backward(
                A=prob.ingredients["A"], B=prob.ingredients["grad"], beta=1.0,
                gamma=1.0, x0=vec(0.0), variant="mean",
                weights=inertial_weights(EtaSchedule(kind="constant", eta=0.5)),
            )


class TestPolyakSubgradient:
    def test_a_zero_selection_above_the_level_warns_the_caller(self):
        # f sits above theta everywhere and s selects 0: each step's
        # subgradient projector warns, and the warning is not a flag
        box = projector("box", lo=[-1.0, -1.0], hi=[1.0, 1.0])
        preset = polyak_subgradient(
            f=lambda x: 2.0, s=np.zeros_like, theta=1.0, region_projector=box,
            x0=vec(0.5, -0.25), max_iters=3, stop_residual=0.0,
        )
        with pytest.warns(DegenerateSelectionWarning) as warned:
            x, trace = preset.solve()
        assert [w.category for w in warned] == [DegenerateSelectionWarning] * 3
        assert trace.flags == []
        assert x.tolist() == [0.5, -0.25]

    def test_whole_space_scalar_collapses_in_one_step(self):
        # G sends any x to the level set of |.| at 0 immediately
        box = projector("box", lo=[-1e12], hi=[1e12])
        preset = polyak_subgradient(
            f=lambda x: float(np.abs(x).sum()),
            s=lambda x: np.sign(x),
            theta=0.0,
            region_projector=box,
            x0=vec(4.0),
            max_iters=5,
        )
        x, trace = preset.solve()
        assert trace.points[1] == pytest.approx(0.0)

    def test_feasible_optimal_start_is_constant(self):
        prob = catalog("polyak_norm_over_halfspace")
        preset = polyak_subgradient(
            f=prob.ingredients["f"], s=prob.ingredients["s"], theta=prob.theta,
            region_projector=prob.ingredients["projector"], x0=vec(1.0, 0.0),
            max_iters=10, stop_residual=0.0,
        )
        _, trace = preset.solve()
        for p in trace.points:
            assert np.allclose(p, vec(1.0, 0.0), atol=1e-15)

    def test_norm_over_halfspace_approaches_tangent_point(self):
        # the constraint boundary is tangent to the level set at (1, 0), so
        # the iterates approach at the alternating-projection rate ~ 1/sqrt(n)
        prob = catalog("polyak_norm_over_halfspace")
        preset = polyak_subgradient(
            f=prob.ingredients["f"], s=prob.ingredients["s"], theta=prob.theta,
            region_projector=prob.ingredients["projector"], x0=vec(3.0, 2.0),
            weights=window(2), max_iters=500, stop_residual=0.0,
            reference=prob.reference,
        )
        x, trace = preset.solve()
        errs = [np.linalg.norm(p - prob.reference) for p in trace.points[2:]]
        assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))
        final = np.linalg.norm(x - prob.reference)
        assert 1e-3 <= final <= 1e-1
        assert final * np.sqrt(500) == pytest.approx(1.22, abs=0.15)

    def test_epsilon_band(self):
        prob = catalog("polyak_norm_over_halfspace")
        with pytest.raises(ConfigurationError, match="epsilon"):
            polyak_subgradient(
                f=prob.ingredients["f"], s=prob.ingredients["s"], theta=prob.theta,
                region_projector=prob.ingredients["projector"], x0=vec(3.0, 2.0),
                eta_low=0.5, epsilon=0.3,
            )

    def test_lambda_band(self):
        prob = catalog("polyak_norm_over_halfspace")
        with pytest.raises(ConfigurationError, match="lambda"):
            polyak_subgradient(
                f=prob.ingredients["f"], s=prob.ingredients["s"], theta=prob.theta,
                region_projector=prob.ingredients["projector"], x0=vec(3.0, 2.0),
                lam=1.6, xi=1.0, eta_low=0.5, epsilon=0.05,
            )

    def polyak(self, **kwargs):
        prob = catalog("polyak_norm_over_halfspace")
        args = dict(
            f=prob.ingredients["f"], s=prob.ingredients["s"], theta=prob.theta,
            region_projector=prob.ingredients["projector"], x0=vec(3.0, 2.0),
            eta_low=0.5, epsilon=0.05, max_iters=20, stop_residual=0.0,
        )
        args.update(kwargs)
        return polyak_subgradient(**args)

    def test_constant_xi_band_checked_at_build(self):
        message = "xi_0 = 1.8 outside [eta, 2-eta] = [0.5, 1.5]"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            self.polyak(xi=1.8)

    def test_callable_xi_leaving_band_raises_from_solve_before_operator_calls(self):
        f = catalog("polyak_norm_over_halfspace").ingredients["f"]
        calls = []

        def counting_f(x):
            calls.append(1)
            return f(x)

        preset = self.polyak(f=counting_f, xi=lambda n: 1.0 if n < 7 else 1.8)
        message = "xi_7 = 1.8 outside [eta, 2-eta] = [0.5, 1.5]"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            preset.solve()
        assert calls == []

    def test_callable_xi_called_once_per_step(self):
        xi_calls = []

        def xi(n):
            xi_calls.append(n)
            return 1.2

        _, trace = self.polyak(xi=xi).solve()
        assert trace.n_steps == 20
        assert xi_calls == list(range(20))

    def test_constant_xi_builds_one_stack(self):
        prob = catalog("polyak_norm_over_halfspace")
        kwargs = dict(
            f=prob.ingredients["f"], s=prob.ingredients["s"], theta=prob.theta,
            region_projector=prob.ingredients["projector"], x0=vec(3.0, 2.0), max_iters=5,
        )
        assert isinstance(polyak_subgradient(xi=1.2, **kwargs).config.stacks, LayerStack)
        assert callable(polyak_subgradient(xi=lambda n: 1.2, **kwargs).config.stacks)

    def test_start_projected_into_region(self):
        prob = catalog("polyak_norm_over_halfspace")
        preset = polyak_subgradient(
            f=prob.ingredients["f"], s=prob.ingredients["s"], theta=prob.theta,
            region_projector=prob.ingredients["projector"], x0=vec(-5.0, 2.0),
            max_iters=3,
        )
        assert preset.config.x0[0] == pytest.approx(1.0)


class TestKrasnoselskiiMann:
    def neg_id(self):
        return linear_operator(-np.eye(2), alpha=1.0)

    def test_mean_variant_rescues_negation(self):
        preset = krasnoselskii_mann(
            self.neg_id(), x0=vec(1.0, 0.0), variant="mean", weights=window(2),
            max_iters=60, stop_residual=0.0,
        )
        x, _ = preset.solve()
        assert np.linalg.norm(x) <= 1e-7

    def test_memoryless_baseline_oscillates(self):
        preset = krasnoselskii_mann(
            self.neg_id(), x0=vec(1.0, 0.0), variant="memoryless",
            max_iters=40, stop_residual=0.0,
        )
        _, trace = preset.solve()
        assert all(np.linalg.norm(p) == pytest.approx(1.0) for p in trace.points)

    def test_identity_constant_any_variant(self):
        eye = AveragedOperator(fn=lambda x: x.copy(), alpha=1.0, name="identity")
        for kwargs in (
            dict(variant="memoryless"),
            dict(variant="mean", weights=window(2)),
            dict(variant="inertial", eta=EtaSchedule(kind="constant", eta=0.2), lam=0.5),
        ):
            preset = krasnoselskii_mann(eye, x0=vec(0.4, -0.7), max_iters=10, **kwargs)
            _, trace = preset.solve()
            assert all(np.array_equal(p, vec(0.4, -0.7)) for p in trace.points)

    def test_inertial_rotation_converges_to_origin(self):
        rot = catalog("rotation_fixed_point", angle=np.pi / 2).ingredients["T"]
        preset = krasnoselskii_mann(
            rot, x0=vec(1.0, 0.5), variant="inertial",
            eta=EtaSchedule(kind="constant", eta=0.2), lam=0.5,
            sigma=0.2, theta_tune=2.0 / 3.0, max_iters=300, stop_residual=0.0,
        )
        x, _ = preset.solve()
        assert np.linalg.norm(x) <= 1e-10

    def test_inertial_calls_lambda_and_custom_eta_once_per_n(self):
        lam_calls, eta_calls = [], []

        def lam(n):
            lam_calls.append(n)
            return 0.5

        def eta_fn(n):
            eta_calls.append(n)
            return 0.2

        preset = krasnoselskii_mann(
            self.neg_id(), x0=vec(1.0, 0.0), variant="inertial",
            eta=EtaSchedule(kind="custom", eta=0.2, fn=eta_fn), lam=lam,
            max_iters=20, stop_residual=0.0, reference=vec(0.0, 0.0),
        )
        _, trace = preset.solve()
        run_certificates(trace, vec(0.0, 0.0), which=("i", "ii"))
        # the band check reads n <= max_iters + 1; eta_0 = 0 needs no call
        assert lam_calls == list(range(22))
        assert eta_calls == list(range(1, 22))

    def test_mean_variant_rejects_memoryless_weights(self):
        from affiter import memoryless

        with pytest.raises(ConfigurationError, match="mu_"):
            krasnoselskii_mann(self.neg_id(), x0=vec(1.0, 0.0), variant="mean",
                               weights=memoryless())

    def test_inertial_band_violation_rejected(self):
        with pytest.raises(ConfigurationError, match="band"):
            krasnoselskii_mann(
                self.neg_id(), x0=vec(1.0, 0.0), variant="inertial",
                eta=EtaSchedule(kind="constant", eta=0.9), lam=0.9,
                sigma=1.0, theta_tune=0.1,
            )

    def test_inertial_variant_refuses_errors(self):
        with pytest.raises(ConfigurationError, match="error-free"):
            krasnoselskii_mann(
                self.neg_id(), x0=vec(1.0, 0.0), variant="inertial",
                eta=EtaSchedule(kind="constant", eta=0.2), lam=0.5,
                errors=lambda n: vec(0.5**n, 0.0),
            )

    def test_mean_variant_with_summable_errors(self):
        preset = krasnoselskii_mann(
            self.neg_id(), x0=vec(1.0, 0.0), variant="mean", weights=window(2),
            errors=lambda n: vec(0.5**n * 0.01, 0.0), max_iters=120, stop_residual=0.0,
        )
        x, _ = preset.solve()
        assert np.linalg.norm(x) <= 1e-6


NAN = float("nan")


def counted_ingredients(calls):
    """l1_quadratic's A, B and grad, each appending its name to ``calls``."""
    prob = catalog("l1_quadratic", a=2.0)
    A, B, grad = prob.ingredients["A"], prob.ingredients["B"], prob.ingredients["grad"]

    def counted(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    return (dataclasses.replace(A, resolvent=counted("A", A.resolvent)),
            dataclasses.replace(B, resolvent=counted("B", B.resolvent)),
            counted("grad", grad))


def nan_fb(calls, **kw):
    A, _B, grad = counted_ingredients(calls)
    args = dict(A=A, B=grad, beta=1.0, gamma=1.0, x0=vec(0.0), max_iters=10)
    args.update(kw)
    return forward_backward(**args)


def nan_km(calls, **kw):
    T = linear_operator(-np.eye(2), alpha=1.0)

    def negate(x):
        calls.append("T")
        return T.fn(x)

    return krasnoselskii_mann(dataclasses.replace(T, fn=negate), x0=vec(1.0, 0.0), max_iters=10,
                              **kw)


def nan_pr(calls, **kw):
    A, B, _grad = counted_ingredients(calls)
    return peaceman_rachford(A, B, weights=window(2), x0=vec(0.0), max_iters=10, **kw)


@pytest.mark.parametrize("build, message", [
    (lambda calls: nan_km(calls, variant="memoryless", lam=NAN),
     "lambda_0 must be positive, got nan"),
    (lambda calls: nan_fb(calls, lam=NAN), "lambda_0 = nan below the band floor eps = 0.1"),
    (lambda calls: nan_fb(calls, gamma=NAN, variant="proximal_point"),
     "gamma_0 = nan outside the admissible band [0.1, inf]"),
    (lambda calls: nan_fb(calls, gamma=NAN),
     "gamma_0 = nan outside the admissible band [0.1, 1.8181818181818181]"),
    (lambda calls: nan_pr(calls, gamma=NAN), "gamma must be positive"),
    (lambda calls: nan_km(calls, variant="inertial", lam=0.5, sigma=NAN,
                          eta=EtaSchedule(kind="constant", eta=0.2)),
     "sigma and theta_tune must be positive"),
    (lambda calls: nan_fb(calls, variant="inertial", eta=EtaSchedule(kind="nesterov", tau=NAN)),
     "nesterov-style schedule needs tau >= 2, got nan"),
], ids=["km-lambda", "fb-lambda", "proximal-point-gamma", "fb-gamma", "pr-gamma", "km-sigma",
        "nesterov-tau"])
def test_nan_parameter_is_a_configuration_error_before_any_layer_call(build, message):
    # every comparison with NaN is false, so a band written as `x < lo` let NaN through
    # and the run diverged at n = 0
    calls = []
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        build(calls).solve()
    assert calls == []
