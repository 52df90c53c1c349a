"""Grid benchmark family and the reference solver."""

import numpy as np
import pytest

from mslcp import (GridLcpSpec, LcpProblem, SparseMatrix, brute_force_lcp,
                   classify, comparison_matrix, make_grid_lcp, natural_residual,
                   reference_solve, spmv)

from conftest import dense_jacobi_matrix, random_sparse_hplus


def row_loop_grid(p, shift):
    """The five-point stencil assembled one row at a time in CSR order: the
    reference for ``make_grid_lcp``."""
    n = p * p
    diag_val = 4.0 + shift
    rows = []
    cols = []
    vals = []
    for j in range(n):
        r, c = divmod(j, p)
        if r > 0:
            cols.append(j - p)
            vals.append(-1.0)
        if c > 0:
            cols.append(j - 1)
            vals.append(-1.0)
        cols.append(j)
        vals.append(diag_val)
        if c < p - 1:
            cols.append(j + 1)
            vals.append(-1.0)
        if r < p - 1:
            cols.append(j + p)
            vals.append(-1.0)
        rows.append(len(cols))
    offsets = np.concatenate(([0], np.asarray(rows, dtype=np.int64)))
    return SparseMatrix(n, n, offsets, np.asarray(cols, dtype=np.int64),
                        np.asarray(vals))


class TestGridAssembly:
    @pytest.mark.parametrize("p", [2, 3, 16, 40, 64])
    @pytest.mark.parametrize("shift", [0.0, 0.5, -3.0, -4.0 + 1e-9])
    def test_equals_row_loop_assembly(self, p, shift):
        a = make_grid_lcp(GridLcpSpec(p=p, shift=shift)).A
        ref = row_loop_grid(p, shift)
        assert a.row_offsets.dtype == a.col_indices.dtype == np.int64
        assert a.row_offsets.tobytes() == ref.row_offsets.tobytes()
        assert a.col_indices.tobytes() == ref.col_indices.tobytes()
        assert a.values.tobytes() == ref.values.tobytes()

    def test_p2_exact_values(self):
        prob = make_grid_lcp(GridLcpSpec(p=2))
        expected = np.array([[4.0, -1.0, -1.0, 0.0],
                             [-1.0, 4.0, 0.0, -1.0],
                             [-1.0, 0.0, 4.0, -1.0],
                             [0.0, -1.0, -1.0, 4.0]])
        assert np.array_equal(prob.A.to_dense(), expected)
        angles = 2.0 * np.pi * (np.arange(4) + 1) / 4.0
        assert np.array_equal(prob.f, np.sin(angles))
        assert np.allclose(prob.f, [1.0, 0.0, -1.0, 0.0], atol=1e-15)

    def test_row_sums(self):
        prob = make_grid_lcp(GridLcpSpec(p=5))
        sums = spmv(prob.A, np.ones(25))
        p = 5
        for j in range(25):
            r, c = divmod(j, p)
            interior = 0 < r < p - 1 and 0 < c < p - 1
            if interior:
                assert sums[j] == 0.0
            else:
                assert sums[j] >= 1.0

    def test_symmetry(self):
        a = make_grid_lcp(GridLcpSpec(p=4)).A.to_dense()
        assert np.array_equal(a, a.T)

    def test_shift_moves_diagonal(self):
        base = make_grid_lcp(GridLcpSpec(p=3)).A.to_dense()
        shifted = make_grid_lcp(GridLcpSpec(p=3, shift=0.5)).A.to_dense()
        assert np.allclose(shifted - base, 0.5 * np.eye(9))

    def test_equals_its_comparison_matrix(self):
        a = make_grid_lcp(GridLcpSpec(p=6)).A
        assert comparison_matrix(a).equal_entries(a)

    def test_classified_h_plus(self):
        a = make_grid_lcp(GridLcpSpec(p=8)).A
        cls = classify(a, max_power_iters=100000)
        assert cls.is_h_plus and cls.is_m_matrix

    def test_rejects_tiny_p(self):
        with pytest.raises(ValueError):
            GridLcpSpec(p=1)

    @pytest.mark.parametrize("shift", [-4.0, -5.0, float("nan"), float("inf")])
    def test_rejects_shift_without_positive_diagonal(self, shift):
        with pytest.raises(ValueError, match="shift"):
            GridLcpSpec(p=3, shift=shift)

    @pytest.mark.parametrize("p", [4, 8, 16])
    def test_jacobi_radius_matches_stencil_value(self, p, grid_problem):
        # classical value for this stencil, cross-checked densely for p <= 8
        cls = classify(grid_problem(p).A, max_power_iters=200000)
        assert abs(cls.jacobi_radius_estimate - np.cos(np.pi / (p + 1))) < 1e-4
        if p <= 8:
            j = dense_jacobi_matrix(grid_problem(p).A)
            oracle = float(np.max(np.abs(np.linalg.eigvals(j))))
            assert abs(cls.jacobi_radius_estimate - oracle) < 1e-6


class TestReferenceSolve:
    def test_nonpositive_forcing(self):
        prob = LcpProblem(SparseMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]]),
                          [-1.0, -1.0])
        sol = reference_solve(prob, tol=1e-12)
        assert np.array_equal(sol.x, [0.0, 0.0])
        assert sol.residual == 0.0

    def test_interior_solution(self):
        prob = LcpProblem(SparseMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]]),
                          [3.0, 0.0])
        sol = reference_solve(prob, tol=1e-12)
        assert np.max(np.abs(sol.x - brute_force_lcp(prob))) < 1e-10

    @pytest.mark.parametrize("p", [2, 3])
    def test_grid_matches_brute_force(self, p, grid_problem):
        prob = grid_problem(p)
        sol = reference_solve(prob, tol=1e-12)
        assert np.max(np.abs(sol.x - brute_force_lcp(prob))) < 1e-10
        assert sol.residual < 1e-11
        assert natural_residual(prob, sol.x) == pytest.approx(sol.residual)

    def test_random_matches_brute_force(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            a = random_sparse_hplus(rng, n)
            prob = LcpProblem(a, rng.standard_normal(n) * 2.0)
            sol = reference_solve(prob, tol=1e-12)
            assert np.max(np.abs(sol.x - brute_force_lcp(prob))) < 1e-8
