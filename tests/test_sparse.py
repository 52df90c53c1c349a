"""Sparse matrix primitives: construction invariants, products, entrywise maps."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import coo_array

from mslcp import SparseMatrix, abs_matrix, comparison_matrix, spmv
from mslcp.sparse import (_FINITE_CHUNK, all_finite, as_vector, require_finite,
                          solve_lower_triangular)


def small_dense(max_n=6):
    side = st.integers(1, max_n)
    return side.flatmap(lambda n: arrays(
        np.float64, (n, n),
        elements=st.floats(-10, 10, allow_nan=False, width=64).map(
            lambda v: 0.0 if abs(v) < 1e-3 else v)))


class TestConstruction:
    def test_from_dense_roundtrip(self):
        a = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [-3.0, 4.0, 0.0]])
        sp = SparseMatrix.from_dense(a)
        assert sp.nnz == 4
        assert np.array_equal(sp.to_dense(), a)

    def test_rejects_bad_offsets(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, np.array([0, 2, 1]), np.array([0, 1]),
                         np.array([1.0, 1.0]))

    def test_rejects_unsorted_columns(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseMatrix(1, 3, np.array([0, 2]), np.array([2, 0]),
                         np.array([1.0, 1.0]))

    def test_rejects_duplicate_columns(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseMatrix(1, 3, np.array([0, 2]), np.array([1, 1]),
                         np.array([1.0, 1.0]))

    def test_rejects_stored_zero(self):
        with pytest.raises(ValueError, match="zero"):
            SparseMatrix(1, 2, np.array([0, 1]), np.array([0]), np.array([0.0]))

    def test_rejects_float_dimensions(self):
        # accepted before, and to_dense then failed with a TypeError
        with pytest.raises(ValueError, match="n_rows must be an integer, "
                                             "got 2.0"):
            SparseMatrix(2.0, 2.0, [0, 1, 2], [0, 1], [1.0, 2.0])

    def test_rejects_bool_dimensions(self):
        with pytest.raises(ValueError, match="n_rows must be an integer, "
                                             "got True"):
            SparseMatrix(True, True, [0, 1], [0], [1.0])

    def test_dimensions_are_stored_as_int(self):
        a = SparseMatrix(np.int64(2), np.int32(3), [0, 1, 2], [0, 2],
                         [1.0, 2.0])
        assert (type(a.n_rows), type(a.n_cols)) == (int, int)
        assert a.to_dense().shape == (2, 3)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            SparseMatrix(1, 1, np.array([0, 1]), np.array([0]), np.array([np.nan]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_require_finite_rejects_nan_and_both_infinities(self, bad):
        row = np.array([1.0, bad, 0.0])
        with pytest.raises(ValueError, match="x contains non-finite"):
            require_finite("x", row)
        with pytest.raises(ValueError, match="non-finite"):
            spmv(SparseMatrix.from_dense(np.eye(3)), row)
        with pytest.raises(ValueError, match="matrix contains non-finite"):
            SparseMatrix.from_dense(np.array([row, [0.0, 2.0, 0.0]]))

    def test_require_finite_accepts_entries_whose_sum_overflows(self):
        # the one-reduction test sees an inf sum here and must fall through
        # to the entrywise test, which accepts
        row = np.array([1e308, 1e308])
        with np.errstate(over="ignore"):
            require_finite("x", row)
            assert np.array_equal(spmv(SparseMatrix.from_dense(np.eye(2)), row), row)
            wide = SparseMatrix.from_dense(np.array([[1.7e308, 1.7e308]]))
        assert np.array_equal(wide.values, [1.7e308, 1.7e308])
        with np.errstate(over="raise"):
            require_finite("x", row)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            require_finite("x", row)

    def test_require_finite_warns_about_nothing_on_huge_finite_entries(self):
        # finite entries whose plain sum overflows, in a vector and in the
        # two-dimensional array that from_dense checks
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            row = as_vector([1e308, 1e308])
            wide = SparseMatrix.from_dense(np.array([[1.7e308, 1.7e308],
                                                     [1.7e308, -1.7e308]]))
        assert [str(w.message) for w in caught] == []
        assert np.array_equal(row, [1e308, 1e308]) and wide.nnz == 4

    def test_require_finite_accepts_tiny_entries_where_underflow_raises(self):
        with np.errstate(under="raise"):
            require_finite("x", np.full(4, 1e-300))
            require_finite("matrix", np.full((2, 2), 5e-324))

    def test_require_finite_rejects_infinities_whose_sum_is_nan(self):
        row = np.array([np.inf, -np.inf])
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="x contains non-finite"):
                require_finite("x", row)
            with pytest.raises(ValueError, match="non-finite"):
                spmv(SparseMatrix.from_dense(np.eye(2)), row)
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="x contains non-finite"):
                require_finite("x", row)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="x contains non-finite"):
                require_finite("x", row)

    def test_require_finite_accepts_length_zero(self):
        require_finite("x", np.zeros(0))
        require_finite("matrix", np.zeros((0, 0)))
        empty = SparseMatrix.from_dense(np.zeros((0, 0)))
        assert empty.n_rows == 0 and spmv(empty, []).shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_all_finite_sees_a_bad_entry_in_the_last_chunk(self, bad):
        # two and a half chunks: the bad entry sits in the short last one
        row = np.ones(5 * _FINITE_CHUNK // 2)
        assert all_finite(row)
        row[-1] = bad
        assert not all_finite(row)
        assert not all_finite(row.reshape(5, -1))

    def test_all_finite_rejects_both_infinite_signs(self):
        # in different chunks, and in one chunk, where inf - inf is a nan
        # that sets the invalid flag
        for at in ((3, -3), (-2, -1)):
            row = np.zeros(3 * _FINITE_CHUNK)
            row[list(at)] = np.inf, -np.inf
            with np.errstate(invalid="ignore"):
                assert not all_finite(row)
            with np.errstate(all="raise"):
                assert not all_finite(row)

    def test_both_infinite_signs_raise_no_warning(self):
        # inf - inf is a nan that sets the invalid flag in a dot product; a
        # warning recorded, not raised, leaves all_finite on its probe
        long = np.zeros(3 * _FINITE_CHUNK)
        long[[5, 6]] = np.inf, -np.inf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="x contains non-finite"):
                as_vector([1.0, np.inf, -np.inf], name="x")
            assert not all_finite(long)
        assert [str(w.message) for w in caught] == []

    def test_all_finite_accepts_huge_entries_across_many_chunks(self):
        row = np.full(3 * (3 * _FINITE_CHUNK + 1), 1.7e308)
        row[::3] *= -1.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert all_finite(row)
            assert all_finite(row.reshape(-1, 3)[:, :2])
        assert [str(w.message) for w in caught] == []

    def test_from_scipy_sums_duplicates_and_drops_zeros(self):
        sp = SparseMatrix.from_scipy(coo_array(
            ([2.0, 3.0, 1.0, -1.0], ([0, 0, 1, 1], [1, 1, 0, 0])),
            shape=(2, 2)))
        assert np.array_equal(sp.to_dense(), [[0.0, 5.0], [0.0, 0.0]])

    def test_from_scipy_duplicate_sums_within_rounding_bound(self):
        # each stored entry is a k-term floating-point sum, so it lies within
        # (k-1) * 2^-52 * sum|v| of the exact sum; exact zero sums are dropped
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 120))
            rows, cols = rng.integers(0, n, k), rng.integers(0, n, k)
            vals = rng.standard_normal(k) * 10.0 ** rng.uniform(-8, 8, k)
            cancel = rng.random(k) < 0.1  # pairs x, -x make exact zeros
            rows = np.concatenate([rows, rows[cancel]])
            cols = np.concatenate([cols, cols[cancel]])
            vals = np.concatenate([vals, -vals[cancel]])
            sp = SparseMatrix.from_scipy(
                coo_array((vals, (rows, cols)), shape=(n, n)))
            assert np.all(sp.values != 0.0)
            dense = sp.to_dense()
            for r in range(n):
                for c in range(n):
                    dup = vals[(rows == r) & (cols == c)]
                    bound = max(len(dup) - 1, 0) * 2.0 ** -52 \
                        * float(np.sum(np.abs(dup)))
                    assert abs(dense[r, c] - math.fsum(dup)) <= bound
        zero = SparseMatrix.from_scipy(coo_array(
            ([1e8, 1.0, -1e8 - 1.0], ([0, 0, 0], [0, 0, 0])), shape=(1, 1)))
        assert zero.nnz == 0

    def test_equality_compares_entries(self):
        dense = np.array([[4.0, 0.0, -1.0], [0.0, 2.0, 0.0]])
        a = SparseMatrix.from_dense(dense)
        assert a == SparseMatrix.from_scipy(coo_array(
            ([-1.0, 2.0, 4.0], ([0, 1, 0], [2, 1, 0])), shape=(2, 3)))
        assert not a != SparseMatrix.from_dense(dense.copy())
        other = dense.copy()
        other[0, 2] = -1.5
        assert a != SparseMatrix.from_dense(other)
        other[0, 2] = 0.0
        assert a != SparseMatrix.from_dense(other)
        # the same entries in a wider matrix
        assert a != SparseMatrix.from_dense(np.pad(dense, ((0, 0), (0, 1))))
        assert a != "matrix"
        with pytest.raises(TypeError):
            hash(a)

    def test_values_are_immutable(self):
        sp = SparseMatrix.from_dense(np.eye(2))
        with pytest.raises(ValueError):
            sp.values[0] = 7.0

    @settings(max_examples=40, deadline=None)
    @given(small_dense())
    def test_dense_roundtrip_property(self, a):
        assert np.array_equal(SparseMatrix.from_dense(a).to_dense(), a)


class TestSpmv:
    def test_identity(self):
        assert np.array_equal(spmv(SparseMatrix.from_dense(np.eye(3)), [1.0, 2.0, 3.0]),
                              [1.0, 2.0, 3.0])

    def test_row_sums(self):
        a = SparseMatrix.from_dense([[4.0, -1.0], [-1.0, 4.0]])
        assert np.array_equal(spmv(a, [1.0, 1.0]), [3.0, 3.0])

    def test_grid_times_ones(self, grid_problem):
        # hand row-sum of the 4x4 instance: every row holds 4 and two -1
        assert np.array_equal(spmv(grid_problem(2).A, np.ones(4)),
                              [2.0, 2.0, 2.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            spmv(SparseMatrix.from_dense(np.eye(3)), [1.0, 2.0])

    def test_rejects_nan_input(self):
        with pytest.raises(ValueError, match="non-finite"):
            spmv(SparseMatrix.from_dense(np.eye(2)), [np.nan, 0.0])

    def test_empty_rows(self):
        a = SparseMatrix.from_dense([[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(spmv(a, [5.0, 7.0]), [7.0, 0.0])

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(7)
        a = SparseMatrix.from_dense(rng.standard_normal((40, 40))
                                    * (rng.random((40, 40)) < 0.3))
        x = rng.standard_normal(40)
        first = spmv(a, x)
        second = spmv(a, x)
        assert first.tobytes() == second.tobytes()

    def test_bitwise_equal_to_sequential_row_loop(self):
        def row_loop(a, x):
            out = np.zeros(a.n_rows)
            for r in range(a.n_rows):
                s = 0.0
                for j in range(a.row_offsets[r], a.row_offsets[r + 1]):
                    s += a.values[j] * x[a.col_indices[j]]
                out[r] = s
            return out

        rng = np.random.default_rng(11)
        cases = [SparseMatrix.from_dense([[2.5]]),
                 SparseMatrix.from_dense(np.zeros((0, 4))),
                 SparseMatrix.from_dense([[0.0, 0.0], [1.0, 3.0]])]
        for _ in range(60):
            rows, cols = (int(v) for v in rng.integers(1, 30, 2))
            dense = rng.standard_normal((rows, cols)) \
                * (rng.random((rows, cols)) < rng.uniform(0.1, 0.9))
            dense[rng.random(rows) < 0.2] = 0.0  # some empty rows
            cases.append(SparseMatrix.from_dense(dense))
        for a in cases:
            # magnitudes spread over ten decades make summation order visible
            x = rng.standard_normal(a.n_cols) \
                * 10.0 ** rng.uniform(-5, 5, a.n_cols)
            assert spmv(a, x).tobytes() == row_loop(a, x).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(small_dense())
    def test_matches_dense_product(self, a):
        x = np.linspace(-1.0, 1.0, a.shape[0])
        assert np.allclose(spmv(SparseMatrix.from_dense(a), x), a @ x,
                           rtol=1e-13, atol=1e-13)


class TestComparisonMatrix:
    def test_identity(self):
        eye = SparseMatrix.from_dense(np.eye(3))
        assert comparison_matrix(eye) == eye

    def test_sign_flip(self):
        a = SparseMatrix.from_dense([[-3.0, 1.0], [2.0, 5.0]])
        assert np.array_equal(comparison_matrix(a).to_dense(),
                              [[3.0, -1.0], [-2.0, 5.0]])

    def test_grid_matrix_unchanged(self, grid_problem):
        a = grid_problem(4).A
        assert comparison_matrix(a) == a

    def test_non_square_rejected(self):
        a = SparseMatrix.from_dense([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        with pytest.raises(ValueError, match="square"):
            comparison_matrix(a)

    @settings(max_examples=40, deadline=None)
    @given(small_dense())
    def test_idempotent(self, d):
        a = SparseMatrix.from_dense(d)
        once = comparison_matrix(a)
        assert comparison_matrix(once) == once


class TestAbsMatrix:
    def test_identity(self):
        eye = SparseMatrix.from_dense(np.eye(4))
        assert abs_matrix(eye) == eye

    def test_entrywise(self):
        a = SparseMatrix.from_dense([[0.0, -2.0], [3.0, 0.0]])
        assert np.array_equal(abs_matrix(a).to_dense(), [[0.0, 2.0], [3.0, 0.0]])

    @settings(max_examples=40, deadline=None)
    @given(small_dense())
    def test_negation_symmetry(self, d):
        a = SparseMatrix.from_dense(d)
        neg = SparseMatrix.from_dense(-d)
        assert abs_matrix(neg) == abs_matrix(a)


class TestLowerTriangularSolve:
    def test_forward_substitution(self):
        l = SparseMatrix.from_dense([[2.0, 0.0], [-1.0, 4.0]])
        x = solve_lower_triangular(l, [2.0, 3.0])
        assert np.allclose(x, [1.0, 1.0])

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(3)
        d = np.tril(rng.standard_normal((8, 8)))
        np.fill_diagonal(d, rng.uniform(1.0, 2.0, 8))
        l = SparseMatrix.from_dense(d)
        b = rng.standard_normal(8)
        assert np.allclose(solve_lower_triangular(l, b),
                           np.linalg.solve(d, b), atol=1e-12)

    def test_zero_diagonal_rejected(self):
        l = SparseMatrix.from_dense([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="diagonal"):
            solve_lower_triangular(l, [1.0, 1.0])

    def test_upper_entries_rejected(self):
        # a strictly-upper entry used to be skipped silently, returning the
        # solution of the lower triangle alone
        a = SparseMatrix.from_dense([[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match="lower-triangular"):
            solve_lower_triangular(a, [1.0, 1.0])
