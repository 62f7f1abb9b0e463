import dataclasses
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affiter import (
    ConfigurationError,
    EtaSchedule,
    GeometricError,
    InertialBandParams,
    InvalidReferenceError,
    IterationConfig,
    WeightSchedule,
    catalog,
    cesaro,
    compose,
    constant_relaxation,
    forward_backward,
    gradient_step,
    gronwall_envelope,
    inertial_band_validate,
    l1_subdifferential,
    linear_operator,
    memoryless,
    peaceman_rachford,
    prox_l1,
    run,
    run_certificates,
    soft_threshold,
    summability_monitor,
    window,
)
from affiter import certificates, space
from affiter.operators import tail_apply
from affiter.space import norm


EPS = np.finfo(np.float64).eps


def vec(*xs):
    return np.array(xs, dtype=np.float64)


def sq(v):
    return float(v @ v)


def pairwise_form(entries, points, x_ref):
    """The paper's ``sum_j mu_j ||x_j - x*||^2 - 1/2 sum_{j,k} mu_j mu_k ||x_j - x_k||^2``."""
    items = list(entries.items())
    mean_sq = math.fsum(w * sq(points[j] - x_ref) for j, w in items)
    spread = math.fsum(
        wj * wk * sq(points[j] - points[k]) for j, wj in items for k, wk in items
    )
    return mean_sq - 0.5 * spread


def closed_form_envelope(theta0, nus, eps):
    """``theta0 exp(sum_{k<=n} nu_k) + sum_{j<n} eps_j exp(sum_{k=j+1}^n nu_k) + eps_n``."""
    prefix = np.concatenate([[0.0], np.cumsum(nus)])
    return np.array([
        theta0 * math.exp(prefix[n + 1])
        + math.fsum(eps[j] * math.exp(prefix[n + 1] - prefix[j + 1]) for j in range(n))
        + eps[n]
        for n in range(len(nus))
    ])


def pairwise_slacks(trace, x_ref):
    """Certificates (ii) and (iii) with the paper's pairwise sums over each row."""
    ii, iii = [], []
    phis, lambdas, thetas, xbars = trace.phis, trace.lambdas, trace.thetas, trace.xbars
    for n in range(trace.n_steps):
        row = trace.plan.weights.row(n)
        lam, phi, r_n, theta = lambdas[n], phis[n], trace.residuals[n], thetas[n]
        xbar = xbars[n]
        dbar = float(np.linalg.norm(xbar - x_ref))
        base = (pairwise_form(row, trace.points, x_ref)
                - sq(trace.points[n + 1] - x_ref) + theta * (2.0 * dbar + theta))
        ii.append(base - lam * (1.0 / phi - lam) * r_n**2)
        stack = trace.plan.stack_at(n)
        layer_term = 0.0
        for i, layer in enumerate(stack.layers, start=1):
            t_bar, t_ref = tail_apply(stack, i, xbar), tail_apply(stack, i, x_ref)
            disp = (t_bar - layer.fn(t_bar)) - (t_ref - layer.fn(t_ref))
            layer_term = max(layer_term, (1.0 - layer.alpha) / layer.alpha * sq(disp))
        iii.append(base + lam * (lam - 1.0) * r_n**2 - lam * layer_term)
    return {"ii": np.array(ii), "iii": np.array(iii)}


class TestAffineIdentity:
    @settings(deadline=None, max_examples=200)
    @given(
        size=st.integers(1, 12),
        dim=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pairwise_form_equals_distance_of_the_combination(self, size, dim, seed):
        rng = np.random.default_rng(seed)
        free = rng.uniform(-1.0, 1.0, size - 1)
        weights = np.append(free, 1.0 - math.fsum(free))
        points = list(rng.uniform(-10.0, 10.0, (size, dim)))
        x_ref = rng.uniform(-10.0, 10.0, dim)
        xbar = sum(w * x for w, x in zip(weights, points))
        scale = 1.0 + max(sq(x - x_ref) for x in points)
        paper = pairwise_form(dict(enumerate(weights)), points, x_ref)
        assert abs(paper - sq(xbar - x_ref)) <= 1e-12 * scale


class TestGronwall:
    def test_flat_recursion_constant_envelope(self):
        report = gronwall_envelope(1.0, [0.0] * 10, [0.0] * 10)
        assert np.allclose(report.envelope, 1.0)

    def test_pure_growth_doubles(self):
        # theta_{n+1} <= 2 theta_n from theta_0 = 1 gives envelope 2^{n+1}
        report = gronwall_envelope(1.0, [math.log(2.0)] * 8, [0.0] * 8)
        expected = [2.0 ** (n + 1) for n in range(8)]
        assert np.allclose(report.envelope, expected, rtol=1e-12)

    def test_pure_noise_accumulates_linearly(self):
        c = 0.3
        report = gronwall_envelope(0.0, [0.0] * 6, [c] * 6)
        expected = [(n + 1) * c for n in range(6)]
        assert np.allclose(report.envelope, expected, rtol=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            gronwall_envelope(-1.0, [0.0], [0.0])
        with pytest.raises(ConfigurationError):
            gronwall_envelope(1.0, [0.0], [-0.1])

    def test_a_nan_nu_makes_a_violation_at_its_step(self):
        # nu_2 = NaN makes env_2 and every later entry NaN: theta_3 is not dominated
        report = gronwall_envelope(1.0, [0.0, 0.0, math.nan, 0.0], [0.0] * 4,
                                   theta_seq=[1.0] * 5)
        assert np.isnan(report.envelope[2:]).all()
        assert report.dominated is False and report.first_violation == 2

    @settings(deadline=None, max_examples=80)
    @given(
        theta0=st.floats(0.0, 5.0),
        nus=st.lists(st.floats(-0.9, 1.5), min_size=1, max_size=12),
        eps_scale=st.floats(0.0, 2.0),
        seed=st.integers(0, 10_000),
    )
    def test_envelope_dominates_equality_sequences(self, theta0, nus, eps_scale, seed):
        rng = np.random.default_rng(seed)
        eps = (eps_scale * rng.random(len(nus))).tolist()
        theta = [theta0]
        for nu, e in zip(nus, eps):
            theta.append((1.0 + nu) * theta[-1] + e)
        report = gronwall_envelope(theta0, nus, eps, theta_seq=theta)
        assert report.dominated, f"violated at {report.first_violation}"

    @settings(deadline=None, max_examples=80)
    @given(
        theta0=st.floats(0.0, 5.0),
        nus=st.lists(st.floats(-0.9, 1.5), min_size=1, max_size=30),
        eps_scale=st.floats(0.0, 2.0),
        seed=st.integers(0, 10_000),
    )
    def test_recurrence_matches_closed_form(self, theta0, nus, eps_scale, seed):
        eps = (eps_scale * np.random.default_rng(seed).random(len(nus))).tolist()
        env = gronwall_envelope(theta0, nus, eps).envelope
        expected = closed_form_envelope(theta0, nus, eps)
        # relative precision stops at the smallest normal float
        tiny = np.finfo(np.float64).tiny
        assert np.all(np.abs(env - expected) <= 1e-12 * np.abs(expected) + tiny)


class TestInertialBand:
    def test_proximal_point_style_parameters_valid(self):
        # eta in (0, 1/3), sigma = (1 - 3 eta)/2, theta_tune = 2/3 admits
        # unit relaxation when phi == 1/2
        params = InertialBandParams(eta=0.2, sigma=0.2, theta_tune=2.0 / 3.0)
        L = 20
        report = inertial_band_validate(
            params,
            phi_seq=[0.5] * L,
            lambda_seq=[1.0] * L,
            eta_seq=[0.0] + [0.2] * (L - 1),
        )
        assert report.ok
        # strict condition: 0.132 < 1.96; lambda cap ~ 1.1619 leaves margin
        assert report.sigma_margin == pytest.approx(1.96 - 0.132, abs=1e-12)
        b = 0.2 * 1.2 + 0.2 * (2.0 / 3.0) * 1.0 + 0.2
        cap = ((2.0 / 3.0) * 2.0 - 0.2 * b) / ((2.0 / 3.0) * (1.0 + b))
        assert cap == pytest.approx(1.1618644067796613, rel=1e-12)
        assert report.lambda_margin == pytest.approx(cap - 1.0, rel=1e-9)

    def test_eta_zero_collapse(self):
        params = InertialBandParams(eta=0.0, sigma=0.5, theta_tune=1.0)
        report = inertial_band_validate(
            params, phi_seq=[1.0] * 5, lambda_seq=[0.5] * 5, eta_seq=[0.0] * 5
        )
        assert report.ok
        # cap collapses to (theta/phi) / (theta (1 + sigma)) = 1/1.5
        assert report.lambda_margin == pytest.approx(1.0 / 1.5 - 0.5, rel=1e-12)

    def test_strong_inertia_fails_strict_condition(self):
        params = InertialBandParams(eta=0.9, sigma=1.0, theta_tune=0.1)
        # LHS = (0.81 * 1.9 + 0.9) / 0.1 = 24.39 but the RHS cannot exceed 1/phi = 1
        assert (0.9**2 * 1.9 + 0.9 * 1.0) / 0.1 == pytest.approx(24.39)
        report = inertial_band_validate(
            params, phi_seq=[1.0] * 5, lambda_seq=[0.5] * 5,
            eta_seq=[0.0] + [0.9] * 4,
        )
        assert not report.ok
        assert report.violated == "strict sigma condition"

    def test_an_all_nan_eta_sequence_fails(self):
        params = InertialBandParams(eta=0.5, sigma=0.2, theta_tune=1.0)
        report = inertial_band_validate(
            params, phi_seq=[1.0] * 4, lambda_seq=[0.1] * 4, eta_seq=[math.nan] * 4,
        )
        assert not report.ok
        assert report.first_violation == 0 and report.violated == "eta monotonicity / bound"

    def test_a_nan_strict_condition_fails(self):
        # lambda_1 = NaN makes omega_1, and so the strict condition at n = 0, NaN
        params = InertialBandParams(eta=0.2, sigma=0.2, theta_tune=1.0)
        report = inertial_band_validate(
            params, phi_seq=[1.0] * 3, lambda_seq=[0.5, math.nan, 0.5],
            eta_seq=[0.0, 0.2, 0.2],
        )
        assert not report.ok
        assert report.first_violation == 0 and report.violated == "strict sigma condition"

    def test_a_nan_eta_makes_the_monotone_margin_nan(self):
        params = InertialBandParams(eta=0.5, sigma=0.2, theta_tune=1.0)
        for eta in ([math.nan] * 4, [0.0, 0.1, math.nan, 0.3]):
            report = inertial_band_validate(
                params, phi_seq=[1.0] * 4, lambda_seq=[0.1] * 4, eta_seq=eta,
            )
            assert not report.ok and report.violated == "eta monotonicity / bound"
            assert math.isnan(report.monotone_margin)
            assert math.isfinite(report.lambda_margin) and math.isfinite(report.sigma_margin)

    def test_a_nan_lambda_makes_the_lambda_and_sigma_margins_nan(self):
        # lambda_1 = NaN: omega_1, and so the cap and the strict condition at
        # n = 0, are NaN, and lambda_1 itself fails the cap at n = 1
        params = InertialBandParams(eta=0.2, sigma=0.2, theta_tune=1.0)
        report = inertial_band_validate(
            params, phi_seq=[1.0] * 5, lambda_seq=[0.5, math.nan, 0.5, 0.5, 0.5],
            eta_seq=[0.0, 0.2, 0.2, 0.2, 0.2],
        )
        assert not report.ok and report.first_violation == 0
        assert math.isnan(report.lambda_margin) and math.isnan(report.sigma_margin)
        assert report.monotone_margin == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 12), st.floats(0.0, 0.95), st.floats(0.01, 2.0), st.floats(0.01, 3.0),
        st.integers(0, 2**32 - 1),
    )
    def test_finite_margins_equal_the_per_step_fold(self, L, e, sg, th, seed):
        rng = np.random.default_rng(seed)
        phi, lam = rng.uniform(0.05, 1.0, L), rng.uniform(0.0, 1.5, L)
        eta = np.sort(rng.uniform(0.0, e, L))
        report = inertial_band_validate(InertialBandParams(e, sg, th), phi, lam, eta)
        omega = 1.0 / phi - lam
        margins = [math.inf] * 3
        for n in range(L - 1):
            b = e * (1.0 + e) + e * th * omega[n + 1] + sg
            cap = (th / phi[n] - e * b) / (th * (1.0 + b))
            strict = (1.0 / phi[n] - e * e * omega[n + 1]) - (e * e * (1.0 + e) + e * sg) / th
            mono = min(eta[n + 1] - eta[n], e - eta[n + 1])
            margins = [min(margins[0], cap - lam[n]), min(margins[1], strict),
                       min(margins[2], mono)]
        got = [report.lambda_margin, report.sigma_margin, report.monotone_margin]
        assert [float(v).hex() for v in got] == [float(v).hex() for v in margins]

    def test_monotonicity_of_eta_enforced(self):
        params = InertialBandParams(eta=0.5, sigma=0.2, theta_tune=1.0)
        report = inertial_band_validate(
            params, phi_seq=[1.0] * 4, lambda_seq=[0.1] * 4,
            eta_seq=[0.0, 0.3, 0.2, 0.3],
        )
        assert not report.ok
        assert "monotonicity" in report.violated

    def test_decreasing_lambda_can_invalidate(self):
        # NOT monotone in lambda: shrinking lambda_{n+1} grows omega_{n+1},
        # which tightens both the cap and the strict condition at n
        params = InertialBandParams(eta=0.274, sigma=0.0113, theta_tune=1.8126)
        phi = [0.988, 0.389, 0.413, 0.398, 0.606, 0.762]
        lam = [0.2638, 0.1419, 0.7287, 0.1665, 0.9996, 0.9657]
        eta = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25]
        assert inertial_band_validate(params, phi, lam, eta).ok
        shrunk = [l * s for l, s in zip(lam, [0.43, 0.59, 0.61, 0.44, 0.86, 0.32])]
        assert not inertial_band_validate(params, phi, shrunk, eta).ok


class TestSummability:
    def test_geometric_series(self):
        report = summability_monitor([2.0**-n for n in range(60)])
        assert report.partial_sum == pytest.approx(2.0, abs=1e-12)
        assert report.passed

    def test_harmonic_tail_flagged(self):
        n_terms = 4000
        report = summability_monitor([1.0 / (n + 1.0) for n in range(n_terms)])
        assert not report.passed
        # last-quarter increment of the harmonic series approaches ln(4/3)
        assert report.tail_increment == pytest.approx(math.log(4.0 / 3.0), abs=2e-3)

    def test_negative_terms_rejected(self):
        with pytest.raises(ConfigurationError):
            summability_monitor([1.0, -0.5])

    def test_chi_weighting(self):
        report = summability_monitor([1.0, 1.0], chi=[2.0, 3.0])
        assert report.partial_sum == pytest.approx(5.0)

    def test_a_sum_that_overflows_keeps_its_total_and_tail_without_a_warning(self):
        # S = [1e308, inf, inf, inf]: the last-quarter cut is S_2, and
        # inf - inf is NaN in Python floats, with no numpy warning
        values = [1e308, 1e308, 1.0, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = summability_monitor(values)
        assert report.partial_sum == math.inf
        assert math.isnan(report.tail_increment)
        assert not report.passed
        # S = [1, 2, 3, 1e308, inf]: the cut S_3 is finite, so the tail is inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = summability_monitor([1.0, 1.0, 1.0, 1e308, 1e308])
        assert report.partial_sum == report.tail_increment == math.inf


class TestRunCertificates:
    def fb_trace(self, max_iters=200, x0=0.0):
        stack = compose([prox_l1(1.0), gradient_step(1.0, lambda x: x - 2.0, beta=1.0)])
        cfg = IterationConfig(
            stacks=stack, weights=memoryless(), relaxation=constant_relaxation(1.0),
            x0=vec(x0), max_iters=max_iters, stop_residual=0.0,
        )
        return run(cfg)

    @pytest.mark.parametrize("variant", ["window5", "cesaro", "nesterov"])
    def test_energy_slacks_match_pairwise_form(self, variant):
        prob = catalog("l1_quadratic", a=[2.0, -0.3, 0.7])
        kwargs = {
            "window5": dict(variant="mean", weights=window(5)),
            "cesaro": dict(variant="mean", weights=cesaro()),
            "nesterov": dict(variant="inertial", eta=EtaSchedule(kind="nesterov", tau=2.0)),
        }[variant]
        preset = forward_backward(
            A=prob.ingredients["A"], B=prob.ingredients["grad"], beta=prob.beta,
            gamma=0.8, x0=vec(-1.0, 2.0, 3.0), max_iters=60, stop_residual=0.0,
            **kwargs,
        )
        _, trace = preset.solve()
        x_ref = prob.reference
        reports = run_certificates(trace, x_ref, which=("ii", "iii"))
        expected = pairwise_slacks(trace, x_ref)
        scale = 1.0 + max(sq(p - x_ref) for p in trace.points)
        for name, rep in reports.items():
            assert np.max(np.abs(rep.slacks - expected[name])) <= 1e-12 * scale, name
            bad = np.nonzero(expected[name] < -rep.tolerance)[0]
            assert rep.first_violation == (int(bad[0]) if bad.size else None), name
            assert rep.passed == (bad.size == 0), name

    def test_forward_backward_energy_certificate(self):
        trace = self.fb_trace()
        reports = run_certificates(trace, vec(1.0), which=("i", "ii", "iii"))
        for rep in reports.values():
            assert rep.min_slack >= -1e-9, rep.name
            assert rep.passed

    def test_start_at_reference_trivial_pattern(self):
        trace = self.fb_trace(max_iters=20, x0=1.0)
        reports = run_certificates(trace, vec(1.0), which=("i", "ii"))
        assert reports["i"].min_slack >= 0.0
        assert reports["ii"].min_slack >= -1e-15

    def test_invalid_reference_rejected(self):
        trace = self.fb_trace(max_iters=10)
        with pytest.raises(InvalidReferenceError):
            run_certificates(trace, vec(3.0))

    def test_every_distinct_stack_is_checked(self):
        # only the stack applied at n = 1 moves x_ref = 1; the first, middle
        # and last steps (0, 5 and 9) all fix it
        fixing = compose([prox_l1(1.0), gradient_step(1.0, lambda x: x - 2.0, beta=1.0)])
        moving = compose([prox_l1(1.0), gradient_step(1.0, lambda x: x - 3.0, beta=1.0)])
        cfg = IterationConfig(
            stacks=lambda n: moving if n == 1 else fixing, weights=memoryless(),
            relaxation=constant_relaxation(1.0), x0=vec(0.0), max_iters=10,
            stop_residual=0.0,
        )
        trace = run(cfg)
        with pytest.raises(InvalidReferenceError, match=r"residual 1\.000e\+00 at n=1$"):
            run_certificates(trace, vec(1.0))

    def test_mean_value_run_certificates(self):
        neg = compose([linear_operator(-np.eye(2), alpha=1.0)])
        cfg = IterationConfig(
            stacks=neg, weights=window(2), relaxation=constant_relaxation(1.0),
            x0=vec(1.0, 0.0), max_iters=60, stop_residual=0.0,
        )
        trace = run(cfg)
        reports = run_certificates(trace, vec(0.0, 0.0), which=("i", "ii"))
        assert reports["i"].min_slack >= -1e-9
        assert reports["ii"].min_slack >= -1e-9

    def test_recomputation_is_deterministic(self):
        trace = self.fb_trace(max_iters=30)
        a = run_certificates(trace, vec(1.0), which=("ii",))["ii"].slacks
        b = run_certificates(trace, vec(1.0), which=("ii",))["ii"].slacks
        assert np.array_equal(a, b)

    def test_unknown_certificate_name(self):
        trace = self.fb_trace(max_iters=5)
        with pytest.raises(ConfigurationError):
            run_certificates(trace, vec(1.0), which=("iv",))

    def test_reference_tails_evaluated_once_per_distinct_stack(self):
        # forward-backward on |x| + (x - 2)^2 / 2 at step 1/2; its fixed point
        # 1 is approached as 2^-n, so no iterate equals it within 20 steps
        x_ref = vec(1.0)
        at_ref = []

        def counted(op):
            def fn(x):
                if np.array_equal(x, x_ref):
                    at_ref.append(op.name)
                return op.fn(x)

            return dataclasses.replace(op, fn=fn)

        layers = [counted(prox_l1(0.5)), counted(gradient_step(0.5, lambda x: x - 2.0, beta=1.0))]

        def slacks(stacks, max_iters):
            cfg = IterationConfig(
                stacks=stacks, weights=memoryless(), relaxation=constant_relaxation(1.0),
                x0=vec(4.0), max_iters=max_iters, stop_residual=0.0,
            )
            trace = run(cfg)
            del at_ref[:]
            report = run_certificates(trace, x_ref, which=("iii",))["iii"]
            return report.slacks, len(at_ref)

        constant, calls_10 = slacks(compose(layers), 10)
        _, calls_20 = slacks(compose(layers), 20)
        # the inner layer sees x_ref once in verify_reference and twice in (iii)
        assert calls_10 == calls_20 == 3
        # a provider returns a new stack every n, so its tails are evaluated every step
        per_step, _ = slacks(lambda n: compose(layers), 10)
        assert constant.tobytes() == per_step.tobytes()
        assert constant.min() >= -1e-9
        # a provider that returns one stack object: verify_reference and (iii)
        # skip a stack that is the step before's, so x_ref is seen as often
        shared = compose(layers)
        repeated, calls_shared = slacks(lambda n: shared, 10)
        assert calls_shared == calls_10 and repeated.tobytes() == constant.tobytes()

    FAMILIES = {
        "memoryless": {},
        "window3": dict(variant="mean", weights=window(3)),
        "cesaro": dict(variant="mean", weights=cesaro()),
        "nesterov": dict(variant="inertial", eta=EtaSchedule(kind="nesterov", tau=2.0)),
        "custom": dict(variant="inertial",
                       eta=EtaSchedule(kind="custom", eta=0.5, fn=lambda n: 0.5 - 2.0 / (n + 3))),
    }

    @pytest.mark.parametrize("family", FAMILIES)
    def test_certificate_i_builds_no_weight_row(self, family, monkeypatch):
        prob = catalog("l1_quadratic", a=[2.0, -0.3, 0.7])
        preset = forward_backward(
            A=prob.ingredients["A"], B=prob.ingredients["grad"], beta=prob.beta,
            gamma=0.8, x0=vec(-1.0, 2.0, 3.0), max_iters=15, stop_residual=0.0,
            **self.FAMILIES[family],
        )
        _, trace = preset.solve()
        x_ref = prob.reference
        # certificate (i) as the explicit row sum: the oracle the kernel must match
        dists = [norm(p - x_ref) for p in trace.points]
        weights = trace.plan.weights
        rhs = np.array([
            math.fsum(abs(w) * dists[j] for j, w in weights.row(n).items())
            for n in range(trace.n_steps)
        ])
        oracle = (rhs + np.array(trace.thetas)) - np.array(dists[1:])
        energy = run_certificates(trace, x_ref, which=("ii", "iii"))

        def no_row(self, n):
            raise AssertionError(f"run_certificates built weight row {n}")

        monkeypatch.setattr(WeightSchedule, "row", no_row)
        reports = run_certificates(trace, x_ref, which=("i", "ii", "iii"))
        if family == "cesaro":
            # one compensated running sum, not a row fsum: within 2 eps of the
            # row sum, plus the rounding of the subtraction (theta_n = 0 here)
            bound = 2.0 * EPS * rhs + np.spacing(np.abs(oracle))
            assert np.all(np.abs(reports["i"].slacks - oracle) <= bound)
        else:
            assert reports["i"].slacks.tobytes() == oracle.tobytes()
        for name in ("ii", "iii"):
            assert reports[name].slacks.tobytes() == energy[name].slacks.tobytes()

    def test_certificate_i_reads_the_runs_eta(self):
        calls = []

        def eta(n):
            calls.append(n)
            return 0.5 - 2.0 / (n + 3)

        prob = catalog("l1_quadratic", a=[2.0, -0.3, 0.7])
        preset = forward_backward(
            A=prob.ingredients["A"], B=prob.ingredients["grad"], beta=prob.beta,
            gamma=0.8, x0=vec(-1.0, 2.0, 3.0), max_iters=20, stop_residual=0.0,
            variant="inertial", eta=EtaSchedule(kind="custom", eta=0.5, fn=eta),
        )
        _, trace = preset.solve()
        assert calls == list(range(1, 20))
        calls.clear()
        reports = run_certificates(trace, prob.reference, which=("i",))
        assert calls == []
        assert reports["i"].passed


class TestNaNSlack:
    """A NaN slack is a failed certificate, not a passed one."""

    def test_a_report_with_a_nan_slack_fails_at_its_index(self):
        report = certificates.CertificateReport(
            name="ii", slacks=np.array([0.5, math.nan, 0.25]), tolerance=1e-9,
        )
        assert report.first_violation == 1 and not report.passed

    @pytest.mark.parametrize("variant", [
        {}, dict(variant="inertial", eta=EtaSchedule(kind="nesterov", tau=2.0)),
        dict(variant="mean", weights=cesaro()),
    ], ids=["memoryless", "nesterov", "cesaro"])
    def test_squared_distances_that_overflow_fail(self, variant):
        # l1_quadratic at d=50 with a of size 1e155: ||x_n - x*||^2 overflows,
        # so (i) and (ii) hold NaN slacks
        a = np.random.default_rng(0).uniform(-3.0, 3.0, 50) * 1e155
        prob = catalog("l1_quadratic", a=a)
        preset = forward_backward(
            A=prob.ingredients["A"], B=prob.ingredients["grad"], beta=1.0, gamma=0.8,
            x0=np.zeros(50), max_iters=300, stop_residual=0.0, reference=prob.reference,
            **variant,
        )
        _, trace = preset.solve()
        reports = run_certificates(trace, prob.reference, which=("i", "ii"))
        for report in reports.values():
            assert np.isnan(report.slacks).any()
            assert not report.passed
            assert report.first_violation == int(np.flatnonzero(np.isnan(report.slacks))[0])

    @pytest.mark.parametrize("poisoned", [1, 2])
    def test_a_nan_layer_term_fails_certificate_iii(self, poisoned):
        # two averaged layers; after the run, layer `poisoned` returns
        # NaN at its input of step 5 only, so that step's maximum over the
        # layers is NaN, whichever layer comes first in it
        a = vec(2.0, -0.3, 0.7)
        layers = [prox_l1(0.8), gradient_step(0.8, lambda x: x - a, beta=1.0)]
        poison = []

        def poisonable(fn):
            return lambda x: np.full_like(x, math.nan) if any(
                np.array_equal(x, p) for p in poison) else fn(x)

        layers[poisoned - 1] = dataclasses.replace(
            layers[poisoned - 1], fn=poisonable(layers[poisoned - 1].fn))
        stack = compose(layers)
        trace = run(IterationConfig(
            stacks=stack, weights=window(2), relaxation=constant_relaxation(1.0),
            x0=vec(-1.0, 0.5, 3.0), max_iters=12, stop_residual=0.0,
        ))
        x_ref = soft_threshold(a, 1.0)
        clean = run_certificates(trace, x_ref, which=("iii",))["iii"]
        assert clean.passed
        poison.append(tail_apply(stack, poisoned, trace.xbars[5]))
        report = run_certificates(trace, x_ref, which=("iii",))["iii"]
        assert np.flatnonzero(np.isnan(report.slacks)).tolist() == [5]
        assert report.first_violation == 5 and not report.passed
        kept = np.arange(trace.n_steps) != 5
        assert report.slacks[kept].tobytes() == clean.slacks[kept].tobytes()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_slacks_fail_without_a_numpy_warning(self):
        # the digest corpus's fb-window2-overflow inputs: l1_quadratic at d=3 with
        # a and x0 times 1e155, window(2), 80 steps; the run flags its overflows
        a, x0 = np.array([2.0, -0.3, 0.7]) * 1e155, np.array([-1.0, 0.5, 3.0]) * 1e155
        prob = catalog("l1_quadratic", a=a)
        preset = forward_backward(
            A=prob.ingredients["A"], B=prob.ingredients["grad"], beta=prob.beta, gamma=0.8,
            x0=x0, weights=window(2), variant="mean", max_iters=80, stop_residual=0.0,
            reference=prob.reference,
        )
        _, trace = preset.solve()
        assert "overflow encountered in multiply" in trace.flags
        reports = run_certificates(trace, prob.reference, which=("i", "ii", "iii"))
        assert sorted(reports) == ["i", "ii", "iii"]
        for report in reports.values():
            assert report.passed is False
            assert not np.isfinite(report.slacks).all()


class TestMeasuredDistances:
    """``run_certificates`` measures every ``||x_n - x*||`` itself, whatever x*
    is: a reference given as a list and a trace stopped on the residual
    each read the distances of the orbit they certify."""

    CASES = [*TestRunCertificates.FAMILIES, "peaceman_rachford"]

    def solve(self, case, max_iters=40, stop_residual=0.0):
        prob = catalog("l1_quadratic", a=[2.0, -0.3, 0.7])
        if case == "peaceman_rachford":
            A, B, gamma = prob.ingredients["A"], prob.ingredients["B"], 0.6
            y_ref = prob.reference
            preset = peaceman_rachford(
                A, B, gamma=gamma, weights=window(2), x0=vec(-1.0, 0.5, 3.0),
                b_errors=lambda n: 0.5**n * vec(0.1, -0.2, 0.05),
                max_iters=max_iters, stop_residual=stop_residual,
                reference=y_ref + gamma * B.mapping(y_ref),
            )
        else:
            preset = forward_backward(
                A=prob.ingredients["A"], B=prob.ingredients["grad"], beta=prob.beta,
                gamma=0.8, x0=vec(-1.0, 2.0, 3.0), max_iters=max_iters,
                stop_residual=stop_residual, reference=prob.reference,
                **TestRunCertificates.FAMILIES[case],
            )
        return preset.solve()[1]

    @staticmethod
    def slacks(trace, x_ref):
        reports = run_certificates(trace, x_ref, which=("i", "ii", "iii"))
        return {name: rep.slacks.tobytes() for name, rep in reports.items()}

    @pytest.mark.parametrize("case", CASES)
    def test_a_list_reference_gives_the_array_references_slacks(self, case):
        trace = self.solve(case)
        x_ref = trace.plan.reference
        assert self.slacks(trace, list(x_ref)) == self.slacks(trace, x_ref)

    @pytest.mark.parametrize("case", ["memoryless", "window3", "peaceman_rachford"])
    def test_a_trace_stopped_on_the_residual_gives_the_per_row_slacks(self, case):
        trace = self.solve(case, max_iters=400, stop_residual=1e-6)
        assert trace.stop_reason == "residual" and trace.n_steps < 400
        assert len(trace.dist_to_ref) == trace.n_steps == len(trace.points) - 1
        x_ref = trace.plan.reference
        expected = loop_slacks(trace, x_ref, ("i", "ii", "iii"))
        assert self.slacks(trace, x_ref) == {
            name: slacks.tobytes() for name, slacks in expected.items()
        }


class TestLongCesaroCertificateI:
    """Certificate (i) on a 2000-step cesaro forward-backward trace at d = 3."""

    @pytest.fixture(scope="class")
    def solved(self):
        prob = catalog("l1_quadratic", a=[2.0, -0.3, 0.7])
        preset = forward_backward(
            A=prob.ingredients["A"], B=prob.ingredients["grad"], beta=prob.beta,
            gamma=0.8, x0=vec(-1.0, 2.0, 3.0), max_iters=2000, stop_residual=0.0,
            variant="mean", weights=cesaro(), reference=prob.reference,
        )
        return preset.solve()[1]

    def test_slacks_stay_within_two_eps_of_the_row_fsum(self, solved):
        trace = solved
        x_ref = trace.plan.reference
        assert trace.n_steps == 2000 and not any(trace.thetas)
        dists = np.array([norm(p - x_ref) for p in trace.points])
        rhs = np.array([math.fsum((dists[:k] * (1.0 / k)).tolist()) for k in range(1, 2001)])
        oracle = rhs - dists[1:]
        got = run_certificates(trace, x_ref, which=("i",))["i"].slacks
        # theta_n = 0: the slack is rhs_n - d_{n+1}, so its one rounding joins the bound
        assert np.all(np.abs(got - oracle) <= 2.0 * EPS * rhs + np.spacing(np.abs(oracle)))

    def test_certificate_i_costs_no_more_than_ii(self, solved):
        x_ref = solved.plan.reference

        def best_of_five(which):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                run_certificates(solved, x_ref, which=which, check_reference=False)
                times.append(time.perf_counter() - start)
            return min(times)

        assert best_of_five(("i",)) <= best_of_five(("ii",))


def loop_slacks(trace, x_ref, which):
    """Certificates (i)-(iii) one step at a time: the per-row loop that
    ``run_certificates`` ran before its distances and sums were batched.

    (i) is the row ``fsum`` of ``|mu_{n,j}| ||x_j - x*||`` (not for cesaro,
    whose running sum is only within 2 eps of it); (ii) and (iii) measure
    ``||xbar_n - x*||`` with one ``norm`` per step.  Squares are ``v * v``,
    a layer term is ``add.reduce``'s sum of squares, and a NaN layer term
    makes (iii)'s maximum NaN.
    """
    x_ref = np.asarray(x_ref, dtype=np.float64)
    points = trace.points
    dists = [norm(p - x_ref) for p in points]
    out = {name: np.zeros(trace.n_steps) for name in which}
    ref_stack = None
    phis, lambdas, thetas, xbars = trace.phis, trace.lambdas, trace.thetas, trace.xbars
    for n in range(trace.n_steps):
        theta_n, xbar, r_n = thetas[n], xbars[n], trace.residuals[n]
        lam, phi, lhs1 = lambdas[n], phis[n], dists[n + 1]
        if "i" in which:
            row = trace.plan.weights.row(n)
            rhs = math.fsum(abs(w) * dists[j] for j, w in row.items())
            out["i"][n] = (rhs + theta_n) - lhs1
        dbar = dists[n] if np.shares_memory(xbar, points[n]) else norm(xbar - x_ref)
        nu_n = theta_n * (2.0 * dbar + theta_n)
        base = dbar * dbar - lhs1 * lhs1 + nu_n
        if "ii" in which:
            out["ii"][n] = base - lam * (1.0 / phi - lam) * (r_n * r_n)
        if "iii" in which:
            stack = trace.plan.stack_at(n)
            if stack is not ref_stack:
                ref_stack, ref_disps = stack, []
                for i, layer in enumerate(stack.layers, start=1):
                    coeff = (1.0 - layer.alpha) / layer.alpha
                    if coeff != 0.0:
                        t_ref = tail_apply(stack, i, x_ref)
                        ref_disps.append((i, layer, coeff, t_ref - layer.fn(t_ref)))
            layer_term = 0.0
            for i, layer, coeff, d_ref in ref_disps:
                t_bar = tail_apply(stack, i, xbar)
                disp = (t_bar - layer.fn(t_bar)) - d_ref
                term = coeff * float(np.add.reduce(np.multiply(disp, disp)))
                if math.isnan(term) or term > layer_term:
                    layer_term = term
            out["iii"][n] = base + lam * (lam - 1.0) * (r_n * r_n) - lam * layer_term
    return out


def loop_envelope(theta0, nu_seq, eps_seq):
    """``gronwall_envelope``'s recurrence over numpy scalars, one entry at a time."""
    nu = np.asarray(nu_seq, dtype=np.float64)
    eps = np.asarray(eps_seq, dtype=np.float64)
    env = np.zeros(min(nu.size, eps.size))
    prev = float(theta0)
    for n in range(env.size):
        prev = math.exp(nu[n]) * prev + eps[n]
        env[n] = prev
    return env


class TestArrayPasses:
    """The batched certificates against their per-row loop, bit for bit."""

    FAMILIES = {
        "memoryless": {},
        "nesterov": dict(variant="inertial", eta=EtaSchedule(kind="nesterov", tau=2.0)),
        "custom": dict(variant="inertial", eta=EtaSchedule(
            kind="custom", eta=0.5, fn=lambda n: 0.0 if n % 3 == 0 else 0.3)),
        "window2": dict(variant="mean", weights=window(2)),
        "window3": dict(variant="mean", weights=window(3)),
        "cesaro": dict(variant="mean", weights=cesaro()),
    }

    @staticmethod
    def solve(family, dim, max_iters=40):
        rng = np.random.default_rng(dim)
        a = rng.uniform(-3.0, 3.0, dim)
        preset = forward_backward(
            A=l1_subdifferential(), B=lambda x: x - a, beta=1.0, gamma=0.8,
            x0=rng.standard_normal(dim), max_iters=max_iters, stop_residual=0.0,
            b_errors=None if family in ("nesterov", "custom") else (
                lambda n: 0.5**n * np.ones(dim)),
            reference=soft_threshold(a, 1.0), **TestArrayPasses.FAMILIES[family],
        )
        return preset.solve()[1]

    @pytest.mark.parametrize("dim", [3, 40])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_slacks_equal_the_per_row_loop(self, family, dim, monkeypatch):
        traces = {}
        for block_floats in (space.BLOCK_FLOATS, 2 * dim):
            # a small block packs the trace's xbar_n into many blocks
            monkeypatch.setattr(space, "BLOCK_FLOATS", block_floats)
            traces[block_floats] = self.solve(family, dim)
        which = ("i", "ii", "iii") if family != "cesaro" else ("ii", "iii")
        for trace in traces.values():
            ref = trace.plan.reference
            for x_ref in (ref, ref + 0.01 * np.arange(dim)):
                expected = loop_slacks(trace, x_ref, which)
                got = run_certificates(trace, x_ref, which=which, check_reference=False)
                for name in which:
                    assert got[name].slacks.tobytes() == expected[name].tobytes(), name

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
           zeros=st.lists(st.booleans(), min_size=1, max_size=7), foreign=st.booleans())
    def test_xbar_distances_are_each_rows_norm(self, seed, dim, zeros, foreign):
        # an inertial row with eta_n = 0 is x_n itself; its trace row is a copy
        # of x_n, measured like every other row
        rng = np.random.default_rng(seed)
        a = rng.uniform(-3.0, 3.0, dim)
        eta = EtaSchedule(kind="custom", eta=0.5,
                          fn=lambda n: 0.0 if zeros[n % len(zeros)] else 0.4)
        trace = forward_backward(
            A=l1_subdifferential(), B=lambda x: x - a, beta=1.0, gamma=0.8,
            x0=rng.standard_normal(dim), variant="inertial", eta=eta, max_iters=40,
            stop_residual=0.0, reference=soft_threshold(a, 1.0),
        ).solve()[1]
        x_ref = trace.plan.reference
        if foreign:
            x_ref = x_ref + rng.standard_normal(dim)
        got = np.empty(trace.n_steps)
        trace.xbars.distances(x_ref, got)
        expected = np.array([norm(xbar - x_ref) for xbar in trace.xbars])
        assert got.tobytes() == expected.tobytes()

    @settings(deadline=None, max_examples=100)
    @given(theta0=st.floats(0.0, 1e3),
           nus=st.lists(st.floats(-2.0, 2.0), max_size=60),
           eps=st.lists(st.floats(0.0, 1e3), max_size=60))
    def test_envelope_equals_the_scalar_loop(self, theta0, nus, eps):
        got = gronwall_envelope(theta0, nus, eps).envelope
        assert got.tobytes() == loop_envelope(theta0, nus, eps).tobytes()

    def test_window_certificates_hold_one_block_of_xbar_n(self):
        # the stacked xbar_n take at most space.BLOCK_FLOATS floats at a time,
        # not the whole N x d orbit (16 MB here)
        trace = self.solve("window2", 20_000, max_iters=100)
        x_ref = trace.plan.reference
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_certificates(trace, x_ref, which=("i", "ii"), check_reference=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 2_000_000


class TestSquaresKernel:
    """Certificates (ii) and (iii) over ``np.square``, against the per-row loop."""

    FAMILIES = {
        "memoryless": {},
        "window2": dict(variant="mean", weights=window(2)),
        "window3": dict(variant="mean", weights=window(3)),
        "window4": dict(variant="mean", weights=window(4)),
        "cesaro": dict(variant="mean", weights=cesaro()),
        "nesterov": dict(variant="inertial", eta=EtaSchedule(kind="nesterov", tau=2.0)),
    }

    @staticmethod
    def config(family, dim, rng, scale=1.0, max_iters=12):
        a = rng.uniform(-3.0, 3.0, dim)
        return forward_backward(
            A=l1_subdifferential(), B=lambda x: x - a, beta=1.0, gamma=0.8,
            x0=rng.standard_normal(dim) * scale, max_iters=max_iters, stop_residual=0.0,
            reference=soft_threshold(a, 1.0), **TestSquaresKernel.FAMILIES[family],
        ).config

    @settings(deadline=None, max_examples=100)
    @given(family=st.sampled_from(sorted(FAMILIES)), dim=st.integers(1, 8),
           k=st.integers(-500, 500), errors=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_slacks_equal_the_per_row_loop_at_every_scale(self, family, dim, k, errors, seed):
        rng = np.random.default_rng(seed)
        scale = 2.0**k
        config = self.config(family, dim, rng, scale)
        if errors:
            # run() takes errors under inertial weights, which the builder rejects
            direction = rng.standard_normal(dim) * scale
            config = dataclasses.replace(config, errors=GeometricError(0.5, direction))
        trace = run(config)
        x_ref = trace.plan.reference
        expected = loop_slacks(trace, x_ref, ("ii", "iii"))
        got = run_certificates(trace, x_ref, which=("ii", "iii"), check_reference=False)
        for name in ("ii", "iii"):
            assert got[name].slacks.tobytes() == expected[name].tobytes(), name

    @pytest.mark.parametrize("family", ["memoryless", "cesaro"])
    def test_a_run_of_no_steps_gets_empty_slacks(self, family):
        trace = run(self.config(family, 2, np.random.default_rng(0), max_iters=0))
        assert trace.n_steps == 0
        reports = run_certificates(trace, trace.plan.reference, which=("i", "ii", "iii"))
        for report in reports.values():
            assert report.slacks.shape == (0,) and report.slacks.dtype == np.float64
            assert report.passed

    def test_slacks_read_the_plan_after_the_config_is_reassigned(self):
        # the oracle reads trace.plan, as the kernel does: reassigning the
        # caller's config after the run changes neither
        rng = np.random.default_rng(7)
        a = rng.uniform(-3.0, 3.0, 3)
        preset = forward_backward(
            A=l1_subdifferential(), B=lambda x: x - a, beta=1.0, gamma=0.8,
            x0=rng.standard_normal(3), max_iters=30, stop_residual=0.0,
            b_errors=lambda n: 0.5**n * np.ones(3), reference=soft_threshold(a, 1.0),
            variant="mean", weights=window(2),
        )
        _, trace = preset.solve()
        x_ref = trace.plan.reference
        which = ("i", "ii", "iii")
        before = run_certificates(trace, x_ref, which=which)
        preset.config.weights = cesaro()
        preset.config.reference = x_ref + 1.0
        expected = loop_slacks(trace, trace.plan.reference, which)
        got = run_certificates(trace, trace.plan.reference, which=which)
        for name in which:
            assert got[name].slacks.tobytes() == expected[name].tobytes(), name
            assert got[name].slacks.tobytes() == before[name].slacks.tobytes(), name
