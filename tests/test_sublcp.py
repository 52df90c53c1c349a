"""Subproblem solvers, the brute-force oracle, and the natural residual."""

import re

import numpy as np
import pytest

from mslcp import (ConvergenceError, LcpProblem, SparseMatrix, brute_force_lcp,
                   factor_structure, natural_residual, solve_sub_lcp)
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

            y = solve_sub_lcp(a, "general", f_vec)
            subproblem_conditions(a, y, f_vec, tol=1e-9)

    def test_one_sweep_is_exact_for_positive_strict_lower_entries(self):
        # once the earlier components are fixed each row is a 1-d problem,
        # so one projected sweep solves any lower-triangular M with a
        # positive diagonal, whatever the signs below it
        rng = np.random.default_rng(43)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            dense = np.tril(rng.uniform(0.1, 1.0, (n, n))
                            * (rng.random((n, n)) < 0.6), -1)
            dense[1, 0] = 0.5
            dense += np.diag(rng.uniform(0.5, 2.0, n))
            low = SparseMatrix.from_dense(dense)
            assert factor_structure(low) == "lower_triangular"
            f_vec = rng.standard_normal(n) * 2.0
            y = solve_sub_lcp(low, "lower_triangular", f_vec)
            subproblem_conditions(low, y, f_vec)
            oracle = brute_force_lcp(LcpProblem(low, f_vec))
            assert np.max(np.abs(y - oracle)) < 1e-12

    def test_general_matches_brute_force(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            n = int(rng.integers(1, 11))
            a = random_sparse_hplus(rng, n)
            f_vec = rng.standard_normal(n) * 2.0
            y = solve_sub_lcp(a, "general", f_vec)
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
            iterated = solve_sub_lcp(low, "general", f_vec)
            assert np.max(np.abs(exact - iterated)) < 1e-10

    def test_nonpositive_diagonal_rejected(self):
        m = SparseMatrix.from_dense([[-2.0]])
        for _ in range(2):  # a factor that fails the check is never cached
            with pytest.raises(ValueError, match="positive diagonal"):
                solve_sub_lcp(m, "diagonal", [1.0])

    def test_budget_exhaustion(self):
        a = SparseMatrix.from_dense([[4.0, -1.0], [-1.0, 4.0]])
        with pytest.raises(ConvergenceError):
            projected_gauss_seidel(a, np.array([1.0, 1.0]), tol=1e-15,
                                   max_sweeps=1)


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
        a = SparseMatrix.from_dense(np.eye(21))
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
            LcpProblem(SparseMatrix.from_dense(np.eye(3)), [1.0, 2.0])

    def test_rejects_nan_forcing(self):
        with pytest.raises(ValueError, match="non-finite"):
            LcpProblem(SparseMatrix.from_dense(np.eye(2)), [np.nan, 1.0])

    def test_pgs_needs_positive_diagonal(self):
        a = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="positive diagonal"):
            projected_gauss_seidel(a, np.ones(2))

    M3 = [[4.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 4.0]]

    @pytest.mark.parametrize("f_vec, message", [
        (np.ones(4), "forcing vector has length 4, expected 3"),
        (np.ones(2), "forcing vector has length 2, expected 3"),
        (np.ones((3, 1)), "forcing vector must be one-dimensional, got "
                           "shape (3, 1)"),
        ([1.0, np.inf, 1.0], "forcing vector contains non-finite entries"),
        ([np.nan, 1.0, 1.0], "forcing vector contains non-finite entries"),
    ], ids=["long", "short", "column", "inf", "nan"])
    def test_pgs_checks_the_forcing_vector(self, f_vec, message):
        a = SparseMatrix.from_dense(self.M3)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            projected_gauss_seidel(a, f_vec)

    @pytest.mark.parametrize("x0, message", [
        ([5.0], "x0 has length 1, expected 3"),
        (np.ones(4), "x0 has length 4, expected 3"),
        ([1.0, 1.0, np.inf], "x0 contains non-finite entries"),
    ], ids=["one-entry", "long", "inf"])
    def test_pgs_checks_the_start(self, x0, message):
        a = SparseMatrix.from_dense(self.M3)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            projected_gauss_seidel(a, np.ones(3), x0=x0)

    def test_pgs_leaves_its_inputs_alone(self):
        a = SparseMatrix.from_dense(self.M3)
        f_vec, x0 = np.ones(3), np.full(3, 5.0)
        x, sweeps, _ = projected_gauss_seidel(a, f_vec, x0=x0)
        assert np.array_equal(f_vec, np.ones(3))
        assert np.array_equal(x0, np.full(3, 5.0)) and sweeps > 1
        assert np.allclose(a.to_dense() @ x, f_vec, rtol=0.0, atol=1e-11)
