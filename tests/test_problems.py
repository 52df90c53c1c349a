"""Grid benchmark family and the reference solver."""

import numpy as np
import pytest

import mslcp.problems
from mslcp import (ConvergenceError, GridLcpSpec, LcpProblem, SparseMatrix,
                   brute_force_lcp, classify, comparison_matrix, make_grid_lcp,
                   natural_residual, reference_solve, spmv)
from mslcp.sublcp import projected_gauss_seidel

from conftest import dense_jacobi_matrix, random_m_matrix, random_sparse_hplus


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


def gauss_seidel_reference(prob, tol, max_sweeps=500000):
    """Projected Gauss-Seidel swept until the iterate moves less than ``tol``
    and the natural residual is below ``10 * tol``: the oracle
    ``reference_solve`` ran for every matrix before its active-set path."""
    x = np.zeros(prob.n)
    remaining = max_sweeps
    while True:
        x, used, _ = projected_gauss_seidel(prob.A, prob.f, x0=x, tol=tol,
                                            max_sweeps=remaining)
        remaining -= used
        if natural_residual(prob, x) < 10.0 * tol:
            return x
        assert remaining > 0


def count_gauss_seidel_calls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return projected_gauss_seidel(*args, **kwargs)

    monkeypatch.setattr(mslcp.problems, "projected_gauss_seidel", counted)
    return calls


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
        cls = classify(a)
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
        cls = classify(grid_problem(p).A)
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

    def test_m_matrices_match_brute_force(self):
        # An M-matrix problem has one solution, so brute force finds it in
        # any index order; putting the support of the answer under test
        # first only lets it stop after 2^|support| candidate sets, not 2^n.
        # Forcing of mean -1 keeps both the support and its complement
        # sizeable (with mean 0 most components are positive at the
        # solution, and brute force runs up to 2^20 solves).
        rng = np.random.default_rng(83)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            prob = LcpProblem(random_m_matrix(rng, n),
                              rng.standard_normal(n) * 2.0 - 1.0)
            x = reference_solve(prob).x
            assert np.all(x >= 0.0)
            order = np.argsort(x == 0.0, kind="stable")
            a = prob.A.to_dense()[np.ix_(order, order)]
            expected = np.empty(n)
            expected[order] = brute_force_lcp(
                LcpProblem(SparseMatrix.from_dense(a), prob.f[order]))
            assert np.max(np.abs(x - expected)) <= 1e-12

    @pytest.mark.parametrize("p", [16, 40])
    def test_grid_matches_gauss_seidel_reference(self, p, grid_problem):
        prob = grid_problem(p)
        old = gauss_seidel_reference(prob, tol=1e-12)
        assert np.max(np.abs(reference_solve(prob).x - old)) <= 1e-8

    def test_grid_runs_no_gauss_seidel(self, monkeypatch, grid_problem):
        calls = count_gauss_seidel_calls(monkeypatch)
        for p in (2, 8, 16):
            reference_solve(grid_problem(p))
        assert calls == []

    def test_non_z_matrix_runs_gauss_seidel(self, monkeypatch):
        calls = count_gauss_seidel_calls(monkeypatch)
        rng = np.random.default_rng(29)
        a = random_sparse_hplus(rng, 12)
        assert np.any(a.values[a.entry_rows() != a.col_indices] > 0.0)
        prob = LcpProblem(a, rng.standard_normal(12))
        sol = reference_solve(prob)
        assert calls
        assert np.max(np.abs(sol.x - brute_force_lcp(prob))) < 1e-8

    @pytest.mark.parametrize("a", [[[1.0, -2.0], [-2.0, 1.0]],
                                   [[1.0, -1.0], [-1.0, 1.0]]],
                             ids=["nonsingular", "singular"])
    # the iterates overflow, and scipy warns of the singular block
    @pytest.mark.filterwarnings("ignore::RuntimeWarning",
                                "ignore::scipy.sparse.linalg.MatrixRankWarning")
    def test_z_pattern_without_h_plus_raises(self, a):
        # neither problem has a solution: adding the two slack rows gives
        # -x_1 - x_2 >= 2 for the first and 0 >= 2 for the second
        prob = LcpProblem(SparseMatrix.from_dense(a), [1.0, 1.0])
        with pytest.raises(ConvergenceError, match="active-set"):
            reference_solve(prob, max_sweeps=2000)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_stops_at_its_sweep(self):
        # the iterate overflows at sweep 512 of the default 500000; the error
        # names that sweep instead of spending the rest
        prob = LcpProblem(SparseMatrix.from_dense([[1.0, -2.0], [-2.0, 1.0]]),
                          [1.0, 1.0])
        with pytest.raises(ConvergenceError,
                           match="non-finite at sweep 512 .*active-set"):
            reference_solve(prob)

    @pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
    def test_empty_feasible_set_raises_without_sweeps(self, monkeypatch):
        # the active-set solve meets a singular block, and no x >= 0 has
        # x_1 - x_2 >= 1 and x_2 - x_1 >= 1
        calls = count_gauss_seidel_calls(monkeypatch)
        prob = LcpProblem(SparseMatrix.from_dense([[1.0, -1.0], [-1.0, 1.0]]),
                          [1.0, 1.0])
        with pytest.raises(ConvergenceError, match="feasible set .* is empty"):
            reference_solve(prob)
        assert calls == []

    @pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
    def test_singular_block_with_a_feasible_set_is_solved(self):
        # the same matrix with f = (1, -1): the active-set solve meets a
        # singular block, the feasible set is not empty, and projected
        # Gauss-Seidel finds the solution
        prob = LcpProblem(SparseMatrix.from_dense([[1.0, -1.0], [-1.0, 1.0]]),
                          [1.0, -1.0])
        sol = reference_solve(prob)
        assert np.array_equal(sol.x, [1.0, 0.0])
        assert sol.residual == 0.0

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    def test_residual_is_the_natural_residual(self, tol, grid_problem):
        rng = np.random.default_rng(47)
        problems = [grid_problem(16), grid_problem(5),
                    LcpProblem(random_m_matrix(rng, 15), rng.standard_normal(15)),
                    LcpProblem(random_sparse_hplus(rng, 15),
                               rng.standard_normal(15))]
        for prob in problems:
            sol = reference_solve(prob, tol=tol)
            assert sol.residual == natural_residual(prob, sol.x) < 10.0 * tol
