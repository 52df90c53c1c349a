"""Subproblem solvers, the brute-force oracle, and the natural residual."""

import numpy as np
import pytest

from mslcp import (ConvergenceError, LcpProblem, SparseMatrix, brute_force_lcp,
                   natural_residual, solve_sub_lcp)
from mslcp.sublcp import projected_gauss_seidel

from conftest import random_sparse_hplus


def subproblem_conditions(m, y, f_vec, tol=1e-10):
    my = m.to_dense() @ y
    scale = 1.0 + float(np.max(np.abs(f_vec)))
    assert np.all(y >= 0.0)
    assert np.all(my - f_vec >= -tol)
    assert abs(float(y @ (my - f_vec))) <= tol * scale


class TestSolveSubLcp:
    def test_negative_forcing_clamps(self):
        m = SparseMatrix.from_dense([[2.0]])
        assert np.array_equal(solve_sub_lcp(m, "diagonal", [-4.0]), [0.0])

    def test_interior_solution(self):
        m = SparseMatrix.from_dense([[2.0]])
        assert np.array_equal(solve_sub_lcp(m, "diagonal", [4.0]), [2.0])

    def test_unfounded_diagonal_claim_is_not_clamped(self):
        m = SparseMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        y = solve_sub_lcp(m, "diagonal", [1.0, 1.0])
        assert np.allclose(y, [1.0, 1.0], rtol=0.0, atol=1e-10)
        subproblem_conditions(m, y, np.array([1.0, 1.0]))

    def test_lower_triangular_sweep(self):
        # brute force over the 4 support sets confirms (2, 0): the second
        # row's slack is -1*2 + 3*0 - (-10) = 8 >= 0
        m = SparseMatrix.from_dense([[2.0, 0.0], [-1.0, 3.0]])
        y = solve_sub_lcp(m, "lower_triangular", [4.0, -10.0])
        assert np.array_equal(y, [2.0, 0.0])
        subproblem_conditions(m, y, np.array([4.0, -10.0]))

    def test_conditions_hold_all_paths(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            a = random_sparse_hplus(rng, n)
            f_vec = rng.standard_normal(n) * 2.0
            ad = a.to_dense()

            diag = SparseMatrix.from_dense(np.diag(np.diag(ad)))
            subproblem_conditions(diag, solve_sub_lcp(diag, "diagonal", f_vec), f_vec)

            low = SparseMatrix.from_dense(np.tril(ad))
            y = solve_sub_lcp(low, "lower_triangular", f_vec)
            subproblem_conditions(low, y, f_vec)

            y = solve_sub_lcp(a, "general", f_vec, iter_tol=1e-13)
            subproblem_conditions(a, y, f_vec, tol=1e-9)

    def test_positive_strict_lower_falls_back_to_iteration(self):
        # the forward sweep is only exact for nonpositive strict-lower
        # entries; this M must take the general path and still satisfy the
        # subproblem conditions
        m = SparseMatrix.from_dense([[1.0, 0.0], [0.9, 1.0]])
        f_vec = np.array([1.0, 1.0])
        y = solve_sub_lcp(m, "lower_triangular", f_vec, iter_tol=1e-14)
        subproblem_conditions(m, y, f_vec)

    def test_general_matches_brute_force(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            n = int(rng.integers(1, 11))
            a = random_sparse_hplus(rng, n)
            f_vec = rng.standard_normal(n) * 2.0
            y = solve_sub_lcp(a, "general", f_vec, iter_tol=1e-13)
            oracle = brute_force_lcp(LcpProblem(a, f_vec))
            assert np.max(np.abs(y - oracle)) < 1e-8

    def test_triangular_exact_matches_general(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            n = int(rng.integers(2, 15))
            a = random_sparse_hplus(rng, n, z_pattern=True)
            low = SparseMatrix.from_dense(np.tril(a.to_dense()))
            f_vec = rng.standard_normal(n)
            exact = solve_sub_lcp(low, "lower_triangular", f_vec)
            iterated = solve_sub_lcp(low, "general", f_vec, iter_tol=1e-12)
            assert np.max(np.abs(exact - iterated)) < 1e-10

    def test_nonpositive_diagonal_rejected(self):
        m = SparseMatrix.from_dense([[-2.0]])
        with pytest.raises(ValueError, match="positive diagonal"):
            solve_sub_lcp(m, "diagonal", [1.0])

    def test_budget_exhaustion(self):
        a = SparseMatrix.from_dense([[4.0, -1.0], [-1.0, 4.0]])
        with pytest.raises(ConvergenceError):
            solve_sub_lcp(a, "general", [1.0, 1.0], iter_tol=1e-15, max_iters=1)


class TestComparisonBound:
    def test_nonnegative_coordinates(self):
        # rows where x_j >= 0 satisfy (<A>|x|)_j <= (A x)_j for H+ matrices
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(1, 20))
            a = random_sparse_hplus(rng, n)
            x = rng.standard_normal(n)
            ad = a.to_dense()
            comp = -np.abs(ad)
            np.fill_diagonal(comp, np.abs(np.diag(ad)))
            lhs = comp @ np.abs(x)
            rhs = ad @ x
            nonneg = x >= 0.0
            assert np.all(lhs[nonneg] <= rhs[nonneg] + 1e-12)


class TestBruteForce:
    def test_interior_solution(self):
        a = SparseMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        x = brute_force_lcp(LcpProblem(a, [3.0, 0.0]))
        assert np.allclose(x, [2.0, 1.0], atol=1e-12)

    def test_nonpositive_forcing_gives_zero(self):
        a = SparseMatrix.from_dense([[1.0]])
        assert np.array_equal(brute_force_lcp(LcpProblem(a, [-1.0])), [0.0])
        a2 = SparseMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        assert np.array_equal(brute_force_lcp(LcpProblem(a2, [-1.0, -1.0])),
                              [0.0, 0.0])

    def test_size_limit(self):
        a = SparseMatrix.identity(21)
        with pytest.raises(ValueError, match="n <= 20"):
            brute_force_lcp(LcpProblem(a, np.zeros(21)))


class TestNaturalResidual:
    def test_zero_at_solutions(self):
        a = SparseMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        prob = LcpProblem(a, [3.0, 0.0])
        assert natural_residual(prob, [2.0, 1.0]) < 1e-14

    def test_zero_with_positive_slack(self):
        prob = LcpProblem(SparseMatrix.from_dense([[1.0]]), [-1.0])
        assert natural_residual(prob, [0.0]) == 0.0

    def test_unit_violation(self):
        prob = LcpProblem(SparseMatrix.from_dense([[1.0]]), [1.0])
        assert natural_residual(prob, [0.0]) == 1.0


class TestProblemValidation:
    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            LcpProblem(SparseMatrix.identity(3), [1.0, 2.0])

    def test_rejects_nan_forcing(self):
        with pytest.raises(ValueError, match="non-finite"):
            LcpProblem(SparseMatrix.identity(2), [np.nan, 1.0])

    def test_pgs_needs_positive_diagonal(self):
        a = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="positive diagonal"):
            projected_gauss_seidel(a, np.ones(2))
