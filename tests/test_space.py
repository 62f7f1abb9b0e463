import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affiter import ConfigurationError
from affiter.space import (
    BLOCK_FLOATS,
    FIRST_BLOCK_FLOATS,
    PAIRWISE_FROM,
    Rows,
    affine_combine,
    all_finite,
    as_vector,
    dot,
    in_order_sum,
    matvec,
    norm,
    row_distances,
)


def vec(*xs):
    return np.array(xs, dtype=np.float64)


def reduced(u, v):
    """The reference order: numpy's ``add.reduce`` of the products."""
    return np.add.reduce(np.multiply(u, v))


#: every length below numpy's pairwise bound, the bound itself, and longer
KERNEL_DIMS = [*range(1, 10), 16, 64, 1000]
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3.0, 1e200, -1e-200,
           math.inf, -math.inf, math.nan]


def draw_vector(data, dim, label):
    """Normal entries over 60 decades, some replaced by zeros of either sign,
    subnormals, infinities, NaN and values whose squares overflow."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label=f"{label} seed"))
    x = rng.standard_normal(dim) * 10.0 ** rng.integers(-30, 30, dim)
    picks = data.draw(st.lists(st.tuples(st.integers(0, dim - 1), st.sampled_from(SPECIAL)),
                               max_size=3), label=f"{label} specials")
    for k, value in picks:
        x[k] = value
    return x


class TestKernel:
    """``dot``, ``norm``, ``row_distances`` and ``matvec`` sum in ``add.reduce``'s order."""

    @settings(deadline=None, max_examples=400)
    @given(dim=st.sampled_from(KERNEL_DIMS), data=st.data())
    def test_dot_and_norm_are_add_reduce_bit_for_bit(self, dim, data):
        u, v = draw_vector(data, dim, "u"), draw_vector(data, dim, "v")
        with np.errstate(all="ignore"):
            for a, b in ((u, v), (u, u), (u, u.copy())):
                assert np.float64(dot(a, b)).tobytes() == reduced(a, b).tobytes()
            assert np.float64(norm(u)).tobytes() == np.sqrt(reduced(u, u)).tobytes()

    @settings(deadline=None, max_examples=150)
    @given(dim=st.sampled_from(KERNEL_DIMS), rows=st.integers(1, 30), data=st.data())
    def test_the_row_forms_are_each_rows_dot(self, dim, rows, data):
        block = np.stack([draw_vector(data, dim, f"row {k}") for k in range(rows)])
        x = draw_vector(data, dim, "x")
        with np.errstate(all="ignore"):
            expected = np.array([reduced(row, x) for row in block])
            assert matvec(block, x).tobytes() == expected.tobytes()
            out = np.empty(rows)
            row_distances(block, x, out)
            expected = np.array([np.sqrt(reduced(row - x, row - x)) for row in block])
            assert out.tobytes() == expected.tobytes()
            assert out.tobytes() == np.array([norm(row - x) for row in block]).tobytes()

    def test_fewer_than_eight_terms_add_in_order_from_positive_zero(self):
        assert PAIRWISE_FROM == 8
        for terms in ([1e16, 1.0, 1.0], [1e16] + [1.0] * 6):
            x = np.array(terms)
            assert dot(x, np.ones(x.size)) == 1e16 == in_order_sum(terms)
            assert reduced(x, np.ones(x.size)) == 1e16
        # from eight terms on, numpy sums pairwise, and so does dot
        x = np.array([1e16] + [1.0] * 7)
        assert dot(x, np.ones(8)) == reduced(x, np.ones(8)) > 1e16
        negative_zero = np.array([-0.0])
        assert math.copysign(1.0, dot(negative_zero, np.ones(1))) == 1.0
        assert math.copysign(1.0, matvec(np.array([[-0.0, -0.0]]), np.ones(2))[0]) == 1.0

    @pytest.mark.parametrize("dim", [2, 9])
    def test_an_overflow_warns_as_numpy_does(self, dim):
        big = np.full(dim, 1e200)
        with pytest.warns(RuntimeWarning, match="^overflow encountered in multiply$"):
            assert dot(big, big) == math.inf
        with pytest.warns(RuntimeWarning, match="^overflow encountered in reduce$"):
            assert norm(np.full(dim, 1e154)) == math.inf  # finite squares

    @pytest.mark.parametrize("u,v", [(np.ones(2), np.ones(3)), (np.ones(9), np.ones(1)),
                                     (np.ones(1), np.ones(9))])
    def test_vectors_of_two_shapes_are_rejected(self, u, v):
        message = f"^dimension mismatch: \\({u.size},\\) vs \\({v.size},\\)$"
        with pytest.raises(ConfigurationError, match=message):
            dot(u, v)
        with pytest.raises(ConfigurationError, match="dimension mismatch"):
            matvec(np.ones((2, u.size)), v)


class TestAllFinite:
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

    @pytest.mark.parametrize("scalar", [2.5, 2, np.float64(2.5), np.array(2.5), np.int32(2)])
    def test_every_kind_of_scalar_becomes_length_one(self, scalar):
        v = as_vector(scalar)
        assert v.shape == (1,) and v.dtype == np.float64
        assert v[0] == float(scalar)
        assert as_vector(scalar, dim=1).tolist() == v.tolist()

    def test_a_float64_vector_comes_back_as_the_same_object(self):
        x = vec(1.0, -2.0, 3.0)
        assert as_vector(x) is x and as_vector(x, dim=3) is x
        strided = np.arange(6.0)[::2]
        assert as_vector(strided) is strided

    @pytest.mark.parametrize("value", [[1, 2], (1.0, 2.0), np.array([1, 2], dtype=np.int64),
                                       np.array([1.0, 2.0], dtype=np.float32)])
    def test_other_vectors_are_read_as_float64(self, value):
        v = as_vector(value)
        assert v.dtype == np.float64 and v.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("value,shape", [
        ([[1.0, 2.0], [3.0, 4.0]], "(2, 2)"),
        (np.zeros((1, 3)), "(1, 3)"),
        (np.zeros((0, 3)), "(0, 3)"),
        ([], "(0,)"),
        (np.zeros(0), "(0,)"),
    ])
    def test_a_2d_or_empty_input_is_rejected(self, value, shape):
        with pytest.raises(ConfigurationError) as info:
            as_vector(value)
        assert str(info.value) == f"expected a 1-D point, got shape {shape}"

    def test_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            as_vector([1.0, float("nan")])

    @pytest.mark.parametrize("value", [[1.0, float("nan")], [float("inf"), 0.0],
                                       -math.inf, [np.nan]])
    def test_non_finite_entries_keep_their_message(self, value):
        with pytest.raises(ConfigurationError) as info:
            as_vector(value)
        assert str(info.value) == "point has non-finite coordinates"

    def test_finite_entries_whose_squares_overflow_pass(self):
        assert as_vector([1e200, -1e300]).tolist() == [1e200, -1e300]

    def test_dim_check(self):
        with pytest.raises(ConfigurationError):
            as_vector([1.0, 2.0], dim=3)

    @pytest.mark.parametrize("value,dim,size", [([1.0, 2.0], 3, 2), (2.5, 2, 1)])
    def test_a_dim_mismatch_keeps_its_message(self, value, dim, size):
        with pytest.raises(ConfigurationError) as info:
            as_vector(value, dim=dim)
        assert str(info.value) == f"expected dimension {dim}, got {size}"

    def test_a_non_finite_point_is_reported_before_its_dimension(self):
        with pytest.raises(ConfigurationError, match="non-finite"):
            as_vector([math.nan, 1.0], dim=3)


class TestRows:
    """``Rows`` gives back every row it was given, bit for bit, across blocks."""

    @settings(deadline=None, max_examples=80)
    @given(dim=st.sampled_from([1, 2, 3, 1000, BLOCK_FLOATS, BLOCK_FLOATS + 1]), data=st.data())
    def test_every_row_comes_back(self, dim, data):
        long_rows = dim >= BLOCK_FLOATS
        # room to cross two or more block boundaries at every dim
        most = 4 if long_rows else 300 if dim >= 1000 else 2500
        capacity = data.draw(st.integers(1, most), label="capacity")
        count = data.draw(st.integers(0, capacity), label="count")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # True: append(x); False: fill new_row() in place
        appends = (rng.random(count) < 0.5).tolist()
        rows, given_rows = Rows(dim, capacity), []
        for append in appends:
            x = rng.standard_normal(dim) * 10.0 ** rng.integers(-300, 300)
            if append:
                rows.append(x)
            else:
                rows.new_row()[:] = x
            given_rows.append(x)

        expected = [x.tobytes() for x in given_rows]
        assert len(rows) == count
        assert [r.tobytes() for r in rows] == expected
        assert [rows[k].tobytes() for k in range(count)] == expected
        assert [rows[k - count].tobytes() for k in range(count)] == expected
        assert [r.tobytes() for r in rows[1::2]] == expected[1::2]
        assert [r.tobytes() for r in rows[::-1]] == expected[::-1]
        packed = b"".join(block.tobytes() for _start, block in rows.blocks())
        assert packed == b"".join(expected)
        head = b"".join(block.tobytes() for _start, block in rows.blocks(count // 2))
        assert head == b"".join(expected[: count // 2])
        # every row is a copy, long or short, appended or filled in place
        assert not any(np.shares_memory(rows[k], x) for k, x in enumerate(given_rows))
        same = Rows.of_blocks(dim, rows.blocks())
        assert [r.tobytes() for r in same] == expected
        assert all(np.shares_memory(s, r) for s, r in zip(same, rows))
        # a block holds as many rows as all before it, so at most twice the
        # rows held, or the first block, are reserved, never past capacity
        reserved = sum(len(block) for block in rows._blocks)
        first = max(1, FIRST_BLOCK_FLOATS // dim)
        assert reserved <= min(capacity, max(2 * count, first))
        assert all(block.size <= BLOCK_FLOATS or len(block) == 1 for block in rows._blocks)
        with pytest.raises(IndexError):
            rows[count]
        with pytest.raises(IndexError):
            rows[-count - 1]

    def test_no_row_past_the_capacity(self):
        rows = Rows(2, 3)
        for k in range(3):
            rows.append(vec(k, k))
        with pytest.raises(IndexError, match="at most 3"):
            rows.append(vec(3.0, 3.0))
        with pytest.raises(IndexError, match="at most 3"):
            rows.new_row()
        with pytest.raises(IndexError, match="at most 3"):
            Rows.of_blocks(2, rows.blocks()).append(vec(0.0, 0.0))

    @pytest.mark.parametrize("value,error", [
        ([1.0, 2.0, 3.0], "could not broadcast"), (["a", "b"], "could not convert"),
    ])
    def test_a_rejected_append_leaves_the_rows_as_they_were(self, value, error):
        rows = Rows(2, 3)
        with pytest.raises(ValueError, match=error):
            rows.append(value)
        assert len(rows) == 0 and rows.blocks() == [] and list(rows) == []
        rows.append(vec(1.0, 2.0))
        with pytest.raises(ValueError, match=error):
            rows.append(value)
        assert len(rows) == 1 and rows[0].tolist() == [1.0, 2.0]
        rows.append(vec(3.0, 4.0))
        assert [r.tolist() for r in rows] == [[1.0, 2.0], [3.0, 4.0]]

    def test_rows_of_another_dtype_or_layout_are_converted(self):
        rows = Rows(3, 4)
        rows.append(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        rows.append([4.0, 5.0, 6.0])
        rows.append(np.array([[7.0, 8.0, 9.0]]))
        rows.append(np.arange(6.0)[::2])
        assert np.stack(rows[:]).tolist() == [[1, 2, 3], [4, 5, 6], [7, 8, 9], [0, 2, 4]]
