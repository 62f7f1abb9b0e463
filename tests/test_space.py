import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affiter import ConfigurationError, affine_combine, norm_dist
from affiter.space import all_finite, as_vector, norm


def vec(*xs):
    return np.array(xs, dtype=np.float64)


class TestNormDist:
    def test_pythagorean(self):
        assert norm_dist(vec(0.0, 0.0), vec(3.0, 4.0)) == 5.0

    def test_identical_points(self):
        p = vec(1.7, -2.2, 0.4)
        assert norm_dist(p, p) == 0.0

    def test_scalars(self):
        assert norm_dist(vec(1.0), vec(-1.0)) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            norm_dist(vec(1.0), vec(1.0, 2.0))


class TestNorm:
    @settings(deadline=None, max_examples=150)
    @given(
        dim=st.integers(1, 10_000),
        log_scale=st.floats(-150.0, 150.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_numpy_bit_for_bit(self, dim, log_scale, seed):
        x = np.random.default_rng(seed).standard_normal(dim) * 10.0**log_scale
        assert norm(x).hex() == float(np.linalg.norm(x)).hex()

    @pytest.mark.filterwarnings("error")
    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.floats(), min_size=1, max_size=8))
    def test_all_finite_matches_numpy_without_warnings(self, values):
        # st.floats() draws nan, infinities and squares that overflow
        x = np.array(values, dtype=np.float64)
        assert all_finite(x) == bool(np.all(np.isfinite(x)))


class TestAffineCombine:
    def test_kronecker_identity_case(self):
        out = affine_combine({0: 1.0}, {0: vec(3.0, -1.0)})
        assert np.array_equal(out, vec(3.0, -1.0))

    def test_kronecker_is_bit_exact(self):
        # includes a negative zero, which naive accumulation would flip
        x = vec(-0.0, 1.2345678901234567)
        out = affine_combine({4: 1.0}, {4: x})
        assert out.tobytes() == x.tobytes()
        out[0] = 9.0  # a copy, not a view
        assert x[0] == -0.0

    def test_extrapolation_row_hand_value(self):
        # 1.5 * 0 + (-0.5) * 1 = -0.5
        out = affine_combine({4: 1.5, 3: -0.5}, {3: vec(1.0), 4: vec(0.0)})
        assert out == pytest.approx(-0.5, abs=0)

    def test_midpoint(self):
        out = affine_combine({1: 0.5, 0: 0.5}, {0: vec(2.0), 1: vec(4.0)})
        assert out == pytest.approx(3.0, abs=0)

    def test_missing_orbit_index(self):
        with pytest.raises(ConfigurationError):
            affine_combine({1: 0.5, 0: 0.5}, {1: vec(4.0)})

    @settings(deadline=None)
    @given(
        raw=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
        shift=st.floats(-50.0, 50.0),
    )
    def test_shift_invariance(self, raw, shift):
        # weights renormalized to sum 1: combining shifted points shifts the result
        total = math.fsum(raw)
        if abs(total) < 0.3:
            raw = [r + 1.0 for r in raw]
            total = math.fsum(raw)
        row = {j: r / total for j, r in enumerate(raw)}
        n = len(raw) - 1
        rng = np.random.default_rng(0)
        orbit = {j: rng.normal(size=3) for j in range(n + 1)}
        shifted = {j: p + shift for j, p in orbit.items()}
        base = affine_combine(row, orbit)
        moved = affine_combine(row, shifted)
        assert np.all(np.abs(moved - (base + shift)) <= 1e-12 * (1.0 + abs(shift)))


class TestAsVector:
    def test_scalar_becomes_length_one(self):
        v = as_vector(2.5)
        assert v.shape == (1,) and v.dtype == np.float64

    def test_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            as_vector([1.0, float("nan")])

    def test_dim_check(self):
        with pytest.raises(ConfigurationError):
            as_vector([1.0, 2.0], dim=3)
