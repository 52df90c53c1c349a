"""Spectral radius estimation, classification, weighted norms, M-matrix solves."""

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from mslcp import (SparseMatrix, classify, solve_m_matrix,
                   spectral_radius_nonneg, weighted_max_norm)

from conftest import dense_jacobi_matrix, random_m_matrix, random_sparse_hplus


class TestSpectralRadius:
    def test_zero_operator(self):
        est = spectral_radius_nonneg(lambda v: np.zeros_like(v), 3)
        assert est.converged and est.value == 0.0

    def test_half_swap(self):
        t = np.array([[0.0, 0.5], [0.5, 0.0]])
        est = spectral_radius_nonneg(lambda v: t @ v, 2, tol=1e-12)
        assert est.converged
        assert abs(est.value - 0.5) < 1e-10

    def test_grid_jacobi_radius(self, grid_problem):
        # dense eigenvalue oracle for the 16x16 instance
        j = dense_jacobi_matrix(grid_problem(4).A)
        oracle = float(np.max(np.abs(np.linalg.eigvals(j))))
        est = spectral_radius_nonneg(lambda v: j @ v, 16, tol=1e-12)
        assert est.converged
        assert abs(est.value - oracle) < 1e-6 * oracle
        assert abs(est.value - np.cos(np.pi / 5)) < 1e-6

    def test_bipartite_pattern_converges(self):
        # unshifted power iterations oscillate on this periodic pattern
        t = np.array([[0.0, 2.0], [0.125, 0.0]])
        est = spectral_radius_nonneg(lambda v: t @ v, 2, tol=1e-12)
        assert est.converged
        assert abs(est.value - 0.5) < 1e-9

    def test_nonconvergence_marker(self, grid_problem):
        j = dense_jacobi_matrix(grid_problem(8).A)
        est = spectral_radius_nonneg(lambda v: j @ v, 64, tol=1e-12, max_iters=3)
        assert not est.converged
        assert est.iterations == 3

    def test_dense_oracle_agreement(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            t = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
            oracle = float(np.max(np.abs(np.linalg.eigvals(t))))
            est = spectral_radius_nonneg(lambda v: t @ v, n, tol=1e-12,
                                         max_iters=200000)
            assert est.converged
            assert abs(est.value - oracle) <= 1e-6 * max(oracle, 1e-12)


class TestClassify:
    def test_small_m_matrix(self):
        cls = classify(SparseMatrix.from_dense([[4.0, -1.0], [-1.0, 4.0]]))
        assert cls.is_m_matrix and cls.is_h_plus and cls.is_h_matrix
        assert cls.is_z_pattern
        assert abs(cls.jacobi_radius_estimate - 0.25) < 1e-6

    def test_not_h(self):
        cls = classify(SparseMatrix.from_dense([[1.0, -2.0], [-2.0, 1.0]]))
        assert not cls.is_h_matrix and not cls.is_m_matrix and not cls.is_h_plus
        assert cls.witness_u is None
        assert abs(cls.jacobi_radius_estimate - 2.0) < 1e-6

    def test_h_but_not_z(self):
        cls = classify(SparseMatrix.from_dense([[-3.0, 1.0], [2.0, 5.0]]))
        assert cls.is_h_matrix
        assert not cls.is_z_pattern and not cls.is_m_matrix
        assert not cls.is_h_plus  # negative diagonal entry

    def test_grid_h_plus_with_certificate(self, grid_problem):
        a = grid_problem(8).A
        cls = classify(a, max_power_iters=100000)
        assert cls.is_h_plus and cls.is_m_matrix
        # dense eigenvalue oracle on the 64x64 Jacobi matrix
        j = dense_jacobi_matrix(a)
        oracle = float(np.max(np.abs(np.linalg.eigvals(j))))
        assert abs(cls.jacobi_radius_estimate - oracle) < 1e-4
        u = cls.witness_u
        assert u is not None and np.all(u > 0)
        assert np.all(j @ u < u)

    def test_indeterminate_band(self):
        # Jacobi matrix [[0,1],[1,0]] has radius exactly 1
        cls = classify(SparseMatrix.from_dense([[1.0, -1.0], [-1.0, 1.0]]),
                       tol=1e-3)
        assert cls.indeterminate
        assert not cls.is_h_matrix
        assert cls.witness_u is None

    def test_zero_diagonal_rejected(self):
        a = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="diagonal"):
            classify(a)

    def test_witness_certificate_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            a = random_sparse_hplus(rng, n)
            cls = classify(a)
            assert cls.is_h_plus
            j = dense_jacobi_matrix(a)
            assert np.all(j @ cls.witness_u < cls.witness_u)


class TestWeightedMaxNorm:
    def test_zero_vector(self):
        assert weighted_max_norm([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_unit_weights(self):
        assert weighted_max_norm([1.0, 2.0], [1.0, 1.0]) == 2.0

    def test_componentwise_ratio(self):
        assert weighted_max_norm([3.0, 1.0], [3.0, 2.0]) == 1.0

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            weighted_max_norm([1.0], [0.0])


class TestSolveMMatrix:
    def test_identity(self):
        u = solve_m_matrix(SparseMatrix.identity(3), np.ones(3))
        assert np.allclose(u, 1.0, atol=1e-12)

    def test_diagonal(self):
        m = SparseMatrix.from_dense([[2.0, 0.0], [0.0, 4.0]])
        assert np.allclose(solve_m_matrix(m, [2.0, 8.0]), [1.0, 2.0], atol=1e-12)

    def test_two_by_two(self):
        m = SparseMatrix.from_dense([[4.0, -1.0], [-1.0, 4.0]])
        u = solve_m_matrix(m, [1.0, 1.0])
        assert np.allclose(u, [1.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_random_against_dense_inverse(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            m = random_m_matrix(rng, n)
            b = rng.uniform(0.0, 2.0, n)
            u = solve_m_matrix(m, b)
            assert np.all(u >= 0.0)
            assert np.allclose(u, np.linalg.solve(m.to_dense(), b), atol=1e-8)

    def test_rejects_non_m_matrix(self):
        a = SparseMatrix.from_dense([[1.0, -2.0], [-2.0, 1.0]])
        with pytest.raises(ValueError, match="M-matrix"):
            solve_m_matrix(a, [1.0, 1.0])

    def test_rejects_negative_rhs(self):
        with pytest.raises(ValueError, match="nonnegative"):
            solve_m_matrix(SparseMatrix.identity(2), [-1.0, 0.0])

    def test_nonnegative_and_exact_on_reducible_matrices(self):
        # reducible M-matrices with zeros in b: the exact solution has zero
        # entries, which the LU solve can leave a few ulps below zero
        rng = np.random.default_rng(1)
        reducible = 0
        for _ in range(150):
            n = int(rng.integers(2, 40))
            m = random_m_matrix(rng, n, density=float(rng.uniform(0.02, 0.5)))
            b = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.5)
            reducible += connected_components(m.to_scipy(),
                                              connection="strong")[0] > 1
            u = solve_m_matrix(m, b)
            assert np.all(u >= 0.0)
            assert np.allclose(u, np.linalg.solve(m.to_dense(), b),
                               rtol=0.0, atol=1e-10)
        assert reducible > 0

    def test_empty_matrix_returns_empty_vector(self):
        empty = SparseMatrix.from_coo(0, 0, [], [], [])
        u = solve_m_matrix(empty, np.zeros(0))
        assert u.shape == (0,)
