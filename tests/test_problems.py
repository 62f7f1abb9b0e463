import numpy as np
import pytest

from affiter import ConfigurationError, brute_oracle, catalog, soft_threshold
from affiter.problems import PROBLEM_PARAMS


def vec(*xs):
    return np.array(xs, dtype=np.float64)


class TestCatalog:
    def test_l1_quadratic_reference_is_soft_threshold(self):
        spec = catalog("l1_quadratic", a=2.0)
        assert spec.reference == pytest.approx(1.0)
        spec2 = catalog("l1_quadratic", a=[2.0, -0.3])
        assert spec2.reference == pytest.approx([1.0, 0.0])
        assert spec2.dim == 2

    def test_l1_quadratic_reference_satisfies_inclusion(self):
        # 0 in A x* + B x*  <=>  a - x* is a subgradient of the l1 norm at x*
        for a in (vec(2.0), vec(2.0, -0.3), vec(0.4, -5.0, 1.0)):
            spec = catalog("l1_quadratic", a=a)
            x_star = spec.reference
            residual = a - x_star  # equals -B(x*)
            assert spec.ingredients["A"].graph_contains(x_star, residual, 1e-12)

    def test_rotation_reference_is_origin(self):
        spec = catalog("rotation_fixed_point", angle=0.7)
        assert np.array_equal(spec.reference, vec(0.0, 0.0))
        rot = spec.ingredients["T"]
        assert np.linalg.norm(rot(spec.reference) - spec.reference) == 0.0

    def test_rotation_rejects_zero_angle(self):
        with pytest.raises(ConfigurationError):
            catalog("rotation_fixed_point", angle=0.0)

    @pytest.mark.parametrize("angle", [float("nan"), float("inf")])
    def test_rotation_rejects_a_non_finite_angle(self, angle):
        # NaN % 2 pi is NaN, which passed `== 0.0` and built a NaN rotation
        with pytest.raises(ConfigurationError, match="rotation angle must be nonzero"):
            catalog("rotation_fixed_point", angle=angle)

    def test_polyak_problem_metadata(self):
        spec = catalog("polyak_norm_over_halfspace")
        assert spec.theta == 1.0
        assert spec.reference == pytest.approx([1.0, 0.0])
        assert spec.feasible(spec.reference)
        assert spec.objective(spec.reference) == pytest.approx(spec.theta)

    def test_feasibility_reference_in_both_sets(self):
        spec = catalog("feasibility")
        assert spec.feasible(spec.reference)
        assert spec.objective(spec.reference) == 0.0

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            catalog("nope")

    @pytest.mark.parametrize("name", sorted(PROBLEM_PARAMS))
    def test_unknown_param_is_named(self, name):
        with pytest.raises(ConfigurationError, match=f"^unknown {name} params: 'b', 'zz'$"):
            catalog(name, b=1, zz=2)


class TestFeasiblePredicates:
    """Halfspace {x_1 >= 1}; ball(center=(2, 0), radius=1.5); slack 1e-12."""

    @pytest.mark.parametrize("name", ["feasibility", "polyak_norm_over_halfspace"])
    def test_halfspace_boundary(self, name):
        feasible = catalog(name).feasible
        assert feasible(vec(1.0, 0.0))
        assert feasible(vec(1.0 - 5e-13, 0.0))
        assert not feasible(vec(1.0 - 1e-11, 0.0))
        assert not feasible(vec(0.8, 0.0))  # inside the ball, outside the halfspace

    def test_ball_boundary(self):
        feasible = catalog("feasibility").feasible
        assert feasible(vec(2.0, 1.5))
        assert feasible(vec(2.0, 1.5 + 5e-13))
        assert not feasible(vec(2.0, 1.5 + 1e-11))
        assert not feasible(vec(2.0, 1.6))  # inside the halfspace, outside the ball

    def test_polyak_feasible_set_is_the_halfspace_alone(self):
        assert catalog("polyak_norm_over_halfspace").feasible(vec(2.0, 1.6))


class TestBruteOracle:
    def test_l1_quadratic_scalar(self):
        spec = catalog("l1_quadratic", a=2.0)
        found = brute_oracle(spec, resolution=1e-4)
        assert abs(found[0] - 1.0) <= 1e-4
        # objective gap at the reference stays within the scan resolution
        assert spec.objective(spec.reference) <= spec.objective(found) + 1e-8

    def test_l1_quadratic_2d(self):
        spec = catalog("l1_quadratic", a=[2.0, -0.3])
        found = brute_oracle(spec, resolution=1e-3)
        assert np.linalg.norm(found - spec.reference) <= 2e-3

    def test_polyak_reference_confirmed(self):
        spec = catalog("polyak_norm_over_halfspace")
        found = brute_oracle(spec, resolution=1e-3)
        assert np.linalg.norm(found - vec(1.0, 0.0)) <= 1e-3

    def test_feasibility_returns_feasible_start(self):
        spec = catalog("feasibility", x0=[2.0, 0.5])
        assert np.array_equal(brute_oracle(spec), vec(2.0, 0.5))

    def test_feasibility_infeasible_start_scans(self):
        spec = catalog("feasibility", x0=[-3.0, 0.0])
        found = brute_oracle(spec, resolution=1e-3)
        assert spec.objective(found) <= 1e-6

    def test_dimension_cap(self):
        spec = catalog("l1_quadratic", a=[1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ConfigurationError):
            brute_oracle(spec)


class TestSoftThreshold:
    def test_matches_reference_rule(self):
        x = vec(2.0, -0.4, 0.0, -3.0)
        assert soft_threshold(x, 1.0) == pytest.approx([1.0, 0.0, 0.0, -2.0])


class TestFeasibilityStack:
    def test_alternating_projection_stack_enters_both_sets(self):
        from affiter import (
            IterationConfig, compose, constant_relaxation, run, run_certificates,
            window,
        )

        spec = catalog("feasibility")
        half, ball = spec.ingredients["projectors"]
        cfg = IterationConfig(
            stacks=compose([half, ball]), weights=window(2),
            relaxation=constant_relaxation(1.0), x0=vec(-3.0, 4.0),
            max_iters=200, reference=spec.reference,
        )
        trace = run(cfg)
        assert spec.objective(trace.final_point) <= 1e-8
        reports = run_certificates(trace, spec.reference, which=("i", "ii"))
        assert all(rep.min_slack >= -1e-9 for rep in reports.values())
