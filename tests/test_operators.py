import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affiter import (
    AveragedOperator,
    ConfigurationError,
    DegenerateSelectionWarning,
    MonotoneMap,
    affine_monotone,
    apply_stack,
    averagedness_certificate,
    compose,
    composite_phi,
    gradient_step,
    l1_subdifferential,
    linear_operator,
    projector,
    prox_l1,
    reflector_operator,
    relaxed,
    resolvent_operator,
    subgradient_projector,
    tail_apply,
)


def vec(*xs):
    return np.array(xs, dtype=np.float64)


class TestCatalog:
    def test_prox_l1_soft_threshold(self):
        assert prox_l1(1.0)(vec(2.0)) == pytest.approx(1.0)
        assert prox_l1(1.0)(vec(0.5)) == pytest.approx(0.0)

    def test_ball_projector_radial_scaling(self):
        p = projector("ball", center=[0.0, 0.0], radius=1.0)
        assert p(vec(3.0, 4.0)) == pytest.approx([0.6, 0.8])

    def test_gradient_step_hand_value(self):
        # (Id - grad)(0) = 0 - (0 - 2) = 2
        op = gradient_step(1.0, lambda x: x - 2.0, beta=1.0)
        assert op(vec(0.0)) == pytest.approx(2.0)
        assert op.alpha == 0.5

    def test_gradient_step_band(self):
        with pytest.raises(ConfigurationError):
            gradient_step(2.0, lambda x: x, beta=1.0)

    def test_halfspace_projector(self):
        # {x : x_1 >= 1} as <(-1, 0), x> <= -1
        p = projector("halfspace", normal=[-1.0, 0.0], offset=-1.0)
        assert p(vec(0.0, 2.0)) == pytest.approx([1.0, 2.0])
        assert p(vec(3.0, 2.0)) == pytest.approx([3.0, 2.0])

    def test_hyperplane_projector(self):
        p = projector("hyperplane", normal=[1.0, 1.0], offset=1.0)
        out = p(vec(1.0, 1.0))
        assert out == pytest.approx([0.5, 0.5])

    def test_linear_operator_builds_without_factorising(self, monkeypatch):
        def no_factorisation(*args, **kwargs):
            raise AssertionError("linear_operator factorised its matrix")

        monkeypatch.setattr(np.linalg, "matrix_rank", no_factorisation)
        d = 2000
        op = linear_operator(0.5 * np.eye(d), alpha=0.5)
        x = np.arange(d, dtype=np.float64)
        assert np.array_equal(op(x), 0.5 * x)
        assert (op.alpha, op.kind) == (0.5, "nonexpansive")


class TestComposeAndPhi:
    def test_two_halves_match_forward_backward_constant(self):
        # with gamma == beta the composite constant is 2/(4 - gamma/beta) = 2/3
        stack = compose([prox_l1(1.0), gradient_step(1.0, lambda x: x - 2.0, beta=1.0)])
        assert stack.phi == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert stack.case == "a"

    @pytest.mark.parametrize("gamma,beta", [(0.5, 1.0), (1.3, 0.8), (1.0, 2.0)])
    def test_phi_closed_form_for_two_layer_split(self, gamma, beta):
        phi = composite_phi([0.5, gamma / (2.0 * beta)])
        assert phi == pytest.approx(2.0 / (4.0 - gamma / beta), rel=1e-14)

    def test_single_plain_layer(self):
        assert composite_phi([1.0]) == 1.0

    def test_three_halves(self):
        # sum of alpha/(1-alpha) = 3, so phi = 1/(1 + 1/3) = 3/4
        assert composite_phi([0.5, 0.5, 0.5]) == pytest.approx(0.75, abs=1e-15)

    def test_case_tags(self):
        g = subgradient_projector(lambda x: float(np.abs(x).sum()), np.sign, theta=0.0)
        assert compose([g]).case == "c"
        assert compose([projector("nonneg"), relaxed(g, 1.0)]).case == "b"

    def test_quasinonexpansive_must_be_last(self):
        g = subgradient_projector(lambda x: float(np.abs(x).sum()), np.sign, theta=0.0)
        with pytest.raises(ConfigurationError):
            compose([relaxed(g, 1.0), projector("nonneg")])

    def test_multi_layer_quasi_needs_alpha_below_one(self):
        q = AveragedOperator(fn=lambda x: x, alpha=1.0, kind="quasinonexpansive")
        with pytest.raises(ConfigurationError):
            compose([projector("nonneg"), q])

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=5))
    def test_phi_bounds(self, alphas):
        phi = composite_phi(alphas)
        assert max(alphas) - 1e-12 <= phi < 1.0

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.floats(0.05, 0.9), min_size=1, max_size=4),
        st.integers(0, 3),
        st.floats(0.01, 0.05),
    )
    def test_phi_nondecreasing_in_each_alpha(self, alphas, which, bump):
        which = which % len(alphas)
        bumped = list(alphas)
        bumped[which] = min(bumped[which] + bump, 0.95)
        assert composite_phi(bumped) >= composite_phi(alphas) - 1e-12


class TestApplyStack:
    def test_zero_errors_match_clean(self):
        stack = compose([prox_l1(1.0), gradient_step(0.7, lambda x: x - 2.0, beta=1.0)])
        x = vec(0.3)
        clean = apply_stack(stack, x)
        noisy = apply_stack(stack, x, [vec(0.0), vec(0.0)])
        assert np.array_equal(clean.value, noisy.value)
        assert clean.aggregate_error == 0.0

    def test_single_layer_with_error(self):
        stack = compose([linear_operator([[-1.0]], alpha=1.0)])
        out = apply_stack(stack, vec(2.0), [vec(0.5)])
        assert out.value == pytest.approx(-1.5)
        assert out.aggregate_error == pytest.approx(0.5)

    def test_reflected_composition_is_constant(self):
        # inner reflector maps everything to 1, outer reflector maps 1 to -1
        inner = reflector_operator(1.0, affine_monotone(np.eye(1), vec(-1.0)))
        outer = reflector_operator(1.0, l1_subdifferential())
        assert inner(vec(17.0)) == pytest.approx(1.0)
        stack = compose([outer, inner])
        for x in (-3.0, 0.0, 5.5):
            assert apply_stack(stack, vec(x)).value == pytest.approx(-1.0)

    def test_short_error_sequence_leaves_inner_layers_exact(self):
        stack = compose([prox_l1(1.0), gradient_step(0.7, lambda x: x - 2.0, beta=1.0)])
        x = vec(3.0)
        short = apply_stack(stack, x, [vec(0.25)])
        padded = apply_stack(stack, x, [vec(0.25), None])
        assert np.array_equal(short.value, padded.value)
        assert short.error_norms == padded.error_norms == (0.25, 0.0)

    @pytest.mark.parametrize("error, shape", [
        (vec(0.1, 0.2), "(2,)"), ([0.1, 0.2], "(2,)"), (np.zeros((1, 1)), "(1, 1)"),
    ], ids=["ndarray", "list", "2-D"])
    def test_error_of_another_shape_is_named(self, error, shape):
        stack = compose([prox_l1(1.0)])
        message = rf"^dimension mismatch: \(1,\) vs {re.escape(shape)}$"
        with pytest.raises(ConfigurationError, match=message):
            apply_stack(stack, vec(1.0), [error])

    def test_list_error_is_read_as_its_array(self):
        stack = compose([prox_l1(1.0)])
        listed = apply_stack(stack, vec(3.0), [[0.5]])
        arrayed = apply_stack(stack, vec(3.0), [vec(0.5)])
        assert listed.value.tobytes() == arrayed.value.tobytes()
        assert listed.clean.tobytes() == arrayed.clean.tobytes()
        assert listed.error_norms == arrayed.error_norms == (0.5,)

    def test_wrong_error_count(self):
        stack = compose([prox_l1(1.0)])
        with pytest.raises(ConfigurationError):
            apply_stack(stack, vec(1.0), [vec(0.1), vec(0.2)])

    def test_tail_of_last_layer_is_identity(self):
        stack = compose([prox_l1(1.0), gradient_step(1.0, lambda x: x - 2.0, beta=1.0)])
        x = vec(0.25)
        assert np.array_equal(tail_apply(stack, 2, x), x)
        assert tail_apply(stack, 1, x) == pytest.approx(stack.layers[1](x))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**31 - 1))
    def test_deviation_bounded_by_error_norms(self, seed):
        rng = np.random.default_rng(seed)
        stack = compose([
            projector("ball", center=[0.0, 0.0], radius=1.5),
            prox_l1(0.5),
            gradient_step(0.8, lambda x: x - vec(1.0, -1.0), beta=1.0),
        ])
        x = rng.normal(size=2) * 3.0
        errors = [rng.normal(size=2) * 0.1 for _ in range(3)]
        clean = apply_stack(stack, x).value
        noisy = apply_stack(stack, x, errors)
        dev = float(np.linalg.norm(noisy.value - clean))
        assert dev <= noisy.aggregate_error + 1e-12


LAYER_KINDS = (
    "ball", "halfspace", "relaxed", "gradient",
    "resolvent_diag", "resolvent_dense", "reflector_diag", "reflector_dense",
)


def random_layer(kind, rng, d):
    """A nonexpansive catalog layer of the given kind with random data."""
    if kind == "ball":
        return projector("ball", center=rng.normal(size=d), radius=rng.uniform(0.5, 2.0))
    if kind == "halfspace":
        return projector("halfspace", normal=rng.normal(size=d) + 0.1, offset=rng.normal())
    if kind == "relaxed":
        return relaxed(projector("nonneg"), rng.uniform(0.1, 1.9))
    if kind == "gradient":
        q, center = rng.uniform(0.5, 2.0), rng.normal(size=d)
        return gradient_step(rng.uniform(0.1, 1.9) / q, lambda x: q * (x - center), beta=1.0 / q)
    if kind.endswith("_diag"):
        mono = affine_monotone(rng.uniform(0.0, 3.0, size=d), rng.normal(size=d))
    else:
        root = rng.normal(size=(d, d))
        mono = affine_monotone(root @ root.T, rng.normal(size=d))
    factory = resolvent_operator if kind.startswith("resolvent") else reflector_operator
    return factory(rng.uniform(0.05, 3.0), mono)


class TestSharedCleanPass:
    @settings(deadline=None, max_examples=80)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(LAYER_KINDS), min_size=1, max_size=4),
        st.integers(1, 4),
        st.one_of(st.none(), st.lists(st.booleans(), max_size=4)),
    )
    def test_clean_value_is_a_separate_clean_pass(self, seed, kinds, d, pattern):
        rng = np.random.default_rng(seed)
        stack = compose([random_layer(kind, rng, d) for kind in kinds])
        x = rng.normal(size=d) * 3.0
        errors = None
        if pattern is not None:  # None entries, and possibly fewer than m
            errors = [rng.normal(size=d) * 0.1 if hit else None for hit in pattern[:stack.m]]
        out = apply_stack(stack, x, errors)
        assert out.clean.tobytes() == apply_stack(stack, x).value.tobytes()
        perturbed = x  # the perturbed chain alone, by hand
        for i in range(stack.m, 0, -1):
            perturbed = stack.layers[i - 1].fn(perturbed)
            if errors and i <= len(errors) and errors[i - 1] is not None:
                perturbed = perturbed + errors[i - 1]
        assert out.value.tobytes() == perturbed.tobytes()
        if errors is None or not any(e is not None for e in errors):
            assert out.clean is out.value

    @settings(deadline=None, max_examples=80)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(LAYER_KINDS), min_size=1, max_size=4),
        st.integers(1, 4),
    )
    def test_error_free_pass_is_the_hand_loop(self, seed, kinds, d):
        rng = np.random.default_rng(seed)
        stack = compose([random_layer(kind, rng, d) for kind in kinds])
        x = rng.normal(size=d) * 3.0
        expected = x
        for layer in reversed(stack.layers):
            expected = layer.fn(expected)
        out = apply_stack(stack, x)
        assert out.value.tobytes() == expected.tobytes()
        assert out.clean is out.value
        assert out.error_norms == (0.0,) * stack.m
        assert out.aggregate_error == 0.0

    def test_layers_below_the_innermost_error_run_once(self):
        calls = []

        def layer(k):
            return AveragedOperator(fn=lambda x: calls.append(k) or 0.5 * x, alpha=0.5)

        stack = compose([layer(1), layer(2), layer(3)])
        out = apply_stack(stack, vec(4.0), [None, vec(1.0)])
        assert calls == [3, 2, 1, 1]  # layer 1 on the perturbed and the clean chain
        assert out.value.tolist() == [1.0] and out.clean.tolist() == [0.5]


def hexes(v):
    return [float(t).hex() for t in v]


class TestDiagonalAffineMonotone:
    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_closed_form_matches_dense_solve_bit_for_bit(self, data):
        d = data.draw(st.integers(1, 8))
        form = data.draw(st.sampled_from(["scalar", "1-D", "2-D"]))
        entries = st.floats(0.0, 10.0)
        diag = np.full(d, data.draw(entries)) if form == "scalar" else np.array(
            data.draw(st.lists(entries, min_size=d, max_size=d)))
        coords = st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d)
        c, x = np.array(data.draw(coords)), np.array(data.draw(coords))
        gamma = data.draw(st.floats(1e-3, 10.0))
        matrix = {"scalar": diag[0], "1-D": diag, "2-D": np.diag(diag)}[form]
        mono = affine_monotone(matrix, c)
        dense = np.diag(diag)
        expected = np.linalg.solve(np.eye(d) + gamma * dense, x - gamma * c)
        # bit for bit up to the sign of an exact zero (adding 0.0 maps -0.0 to
        # +0.0 and keeps every other value): the dense solve and product add
        # 0 * x_j for the off-diagonal terms, which turns a -0.0 into +0.0
        assert hexes(mono.resolvent(gamma, x) + 0.0) == hexes(expected + 0.0)
        assert hexes(mono.mapping(x) + 0.0) == hexes(dense @ x + c + 0.0)

    def test_only_a_non_diagonal_matrix_calls_the_dense_solve(self, monkeypatch):
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(1) or solve(a, b))
        x = vec(1.0, -2.0)
        for matrix in (2.0, [2.0, 1.0], [[2.0, 0.0], [0.0, 1.0]]):
            affine_monotone(matrix, vec(0.5, 0.5)).resolvent(0.7, x)
        assert solves == []
        dense = [[2.0, 0.3], [0.3, 1.0]]
        y = affine_monotone(dense, vec(0.5, 0.5)).resolvent(0.7, x)
        assert solves == [1]
        assert y.tobytes() == solve(np.eye(2) + 0.7 * np.array(dense), x - 0.35).tobytes()

    def test_cached_step_terms_follow_an_alternating_gamma(self):
        c, diag = vec(0.5, -1.25, 3.0), vec(0.0, 2.0, 0.3)
        resolvent = affine_monotone(diag, c).resolvent
        x = vec(1.0, -2.0, 0.7)
        steps = (0.7, 1.9)
        gamma = lambda n: steps[n % 2]
        for n in range(6):
            g = gamma(n)
            assert resolvent(g, x).tobytes() == ((x - g * c) / (1.0 + g * diag)).tobytes()
        # fresh float objects, some equal in value to an earlier step, and a repeat
        for g in (0.7 * 3.0 / 3.0, float("0.7"), 2.0, 2.0, 1e-3, 0.7):
            assert resolvent(g, x).tobytes() == ((x - g * c) / (1.0 + g * diag)).tobytes()

    def test_a_call_interleaved_with_another_gamma_never_mixes_terms(self):
        # a thread switch inside a call, replayed in one thread: subtracting from
        # x runs a call with another step before the division reads its terms
        c, diag = vec(0.5, -1.25), vec(1.0, 4.0)
        resolvent = affine_monotone(diag, c).resolvent
        plain = vec(1.0, -2.0)
        inner = []

        class Interleaving(np.ndarray):
            def __sub__(self, other):
                inner.append(resolvent(5.0, plain))
                return np.subtract(self.view(np.ndarray), other)

        for g in (0.3, 0.3):
            expected = (plain - g * c) / (1.0 + g * diag)
            assert resolvent(g, plain.view(Interleaving)).tobytes() == expected.tobytes()
        expected = ((plain - 5.0 * c) / (1.0 + 5.0 * diag)).tobytes()
        assert [y.tobytes() for y in inner] == [expected, expected]

    def test_wrong_diagonal_length_raises(self):
        with pytest.raises(ConfigurationError, match="diagonal length 3 does not match offset 2"):
            affine_monotone([1.0, 2.0, 3.0], vec(0.0, 0.0))

    def test_caller_matrix_is_copied(self):
        matrix = np.diag([1.0, 2.0])
        mono = affine_monotone(matrix, vec(0.0, 0.0))
        matrix[0, 0] = 5.0
        assert mono.mapping(vec(1.0, 1.0)).tolist() == [1.0, 2.0]


class TestResolventIdentity:
    def test_affine_map_identity(self):
        mono = affine_monotone([[2.0, 0.3], [0.3, 1.0]], vec(0.5, -1.0))
        gamma = 0.7
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=2) * 5.0
            y = mono.resolvent(gamma, x)
            assert np.linalg.norm(y + gamma * mono.mapping(y) - x) <= 1e-9

    def test_l1_graph_membership(self):
        mono = l1_subdifferential()
        gamma = 1.3
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.normal(size=3) * 4.0
            y = mono.resolvent(gamma, x)
            assert mono.graph_contains(y, (x - y) / gamma, 1e-9)


class TestSubgradientProjector:
    def setup_method(self):
        self.f = lambda x: float(np.linalg.norm(x))
        self.s = lambda x: x / np.linalg.norm(x) if np.linalg.norm(x) > 0 else np.zeros_like(x)
        self.g = subgradient_projector(self.f, self.s, theta=1.0)

    def test_below_level_unchanged(self):
        x = vec(0.3, 0.2)
        assert np.array_equal(self.g(x), x)

    def test_norm_target_is_radial_projection(self):
        out = self.g(vec(3.0, 4.0))
        assert out == pytest.approx([0.6, 0.8])

    def test_firm_quasinonexpansiveness_inner_product(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = rng.normal(size=2) * 5.0
            if self.f(x) <= 1.0:
                continue
            y = rng.normal(size=2)
            y = 0.9 * y / max(np.linalg.norm(y), 1.0)  # inside the level set
            gx = self.g(x)
            assert float((y - gx) @ (x - gx)) <= 1e-9

    def test_degenerate_selection_warns(self):
        bad = subgradient_projector(lambda x: 2.0, lambda x: np.zeros_like(x), theta=1.0)
        with pytest.warns(DegenerateSelectionWarning):
            out = bad(vec(0.7))
        assert out == pytest.approx(0.7)


class TestAveragednessCertificate:
    def test_identity_passes_any_alpha(self):
        for alpha in (0.25, 1.0):
            op = AveragedOperator(fn=lambda x: x.copy(), alpha=alpha, name="id")
            assert averagedness_certificate(op, dim=3, sample_count=200).passed

    def test_prox_is_firmly_nonexpansive(self):
        assert averagedness_certificate(prox_l1(1.0), dim=4, sample_count=500).passed

    def test_underdeclared_gradient_step_fails(self):
        # true constant is gamma/(2 beta) = 1/2; asserting 0.1 must be caught
        op = AveragedOperator(fn=lambda x: x - (x - 2.0), alpha=0.1, name="bad")
        report = averagedness_certificate(op, dim=2, sample_count=500)
        assert not report.passed
        assert report.max_violation > 1e-6

    def test_rotation_is_plain_nonexpansive(self):
        rot = linear_operator([[0.0, -1.0], [1.0, 0.0]], alpha=1.0)
        assert averagedness_certificate(rot, dim=2, sample_count=500).passed

    def test_quasinonexpansive_needs_fixed_points(self):
        g = subgradient_projector(lambda x: float(np.linalg.norm(x)), lambda x: x, theta=1.0)
        with pytest.raises(ConfigurationError):
            averagedness_certificate(g, dim=2)

    def test_subgradient_projector_quasi_certificate(self):
        f = lambda x: float(np.linalg.norm(x))
        s = lambda x: x / np.linalg.norm(x) if np.linalg.norm(x) > 0 else np.zeros_like(x)
        g = subgradient_projector(f, s, theta=1.0)
        fps = [vec(0.0, 0.0), vec(0.5, 0.5), vec(-0.9, 0.1)]
        assert averagedness_certificate(g, dim=2, sample_count=600, fixed_points=fps).passed

    @pytest.mark.parametrize("fixed_points", [None, [vec(0.0, 0.0)]],
                             ids=["nonexpansive", "quasinonexpansive"])
    def test_an_operator_that_returns_nan_fails(self, fixed_points):
        calls = []

        def nan_once(x):
            # NaN from the second call only: the finite samples after it must not hide it
            calls.append(1)
            return np.full_like(x, np.nan) if len(calls) == 2 else 0.5 * x

        kind = "nonexpansive" if fixed_points is None else "quasinonexpansive"
        op = AveragedOperator(fn=nan_once, alpha=0.5, kind=kind, name="nan")
        report = averagedness_certificate(op, dim=2, sample_count=50,
                                          fixed_points=fixed_points)
        assert math.isnan(report.max_violation) and not report.passed

    def test_seeded_reports_are_reproducible(self):
        op = prox_l1(1.0)
        a = averagedness_certificate(op, dim=2, seed=7)
        b = averagedness_certificate(op, dim=2, seed=7)
        assert a.max_violation == b.max_violation


#: floats whose double is awkward: signed zeros, subnormals, values whose
#: double overflows, infinities and NaNs, besides hypothesis' own floats
EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1.7e308,
                     8.98846567431158e307, np.inf, -np.inf, np.nan, -np.nan]),
)


class TestDoublingByAddition:
    """``j + j`` is ``2.0 * j`` bit for bit, so the reflectors' ``2 j - x`` kept its bits."""

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(EDGE_FLOATS, EDGE_FLOATS), min_size=1, max_size=9))
    def test_reflector_is_two_resolvents_minus_the_point(self, pairs):
        j, x = (np.array(column) for column in zip(*pairs))
        given_resolvent = MonotoneMap(name="given", resolvent=lambda gamma, y: j)
        with np.errstate(all="ignore"):
            got = reflector_operator(1.0, given_resolvent).fn(x)
            expected = 2.0 * j - x
            doubled, twice = j + j, 2.0 * j
        assert got.tobytes() == expected.tobytes()
        assert doubled.tobytes() == twice.tobytes()
