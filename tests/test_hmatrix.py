"""Spectral radius estimation, classification, weighted norms."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.csgraph import connected_components

import mslcp.hmatrix
from mslcp import SparseMatrix, classify, spectral_radius_nonneg, spmv

from conftest import (dense_contraction_matrix, dense_jacobi_matrix,
                      random_sparse_hplus, reducible_m_matrices,
                      weighted_max_norm)

ROOT = Path(__file__).resolve().parents[1]


def counted(t):
    """The operator v -> t @ v and the list its calls are appended to."""
    calls = []

    def apply(v):
        calls.append(1)
        return t @ v

    return apply, calls


def chain_into_cycle(weight=3.0, length=30):
    """A chain of ``length`` rows of ``weight``, each reading the next, whose
    last row reads a 3-cycle of weight 0.5.  Its radius is the cycle's 0.5,
    but the chain is so far from normal that Arnoldi reports a converged
    Ritz value of 1.13 for it."""
    n = length + 3
    t = np.zeros((n, n))
    t[np.arange(length), np.arange(1, length + 1)] = weight
    t[length, length + 1] = t[length + 1, length + 2] = t[length + 2, length] = 0.5
    return t


def perron_zeros(seed=0, k=12):
    """Random positive blocks [[0.1 B, 0], [C, A]]: the first k rows never
    reach the rest, so the Perron vector is zero on them."""
    rng = np.random.default_rng(seed)
    t = np.zeros((2 * k, 2 * k))
    t[:k, :k] = 0.1 * rng.random((k, k))
    t[k:, :k] = rng.random((k, k))
    t[k:, k:] = rng.random((k, k))
    return t


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
        # an unconverged value is the probe's bound ||J e||_inf >= rho(J)
        assert est.value == np.max(j.sum(axis=1)) > np.cos(np.pi / 9)

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
            assert oracle * (1 - 1e-6) <= est.lower <= oracle * (1 + 1e-12)

    def test_block_lower_operators_match_dense_eigvals(self,
                                                       grid_multisplitting):
        # the non-symmetric contraction operators <M_i>^-1 |N_i|
        ms = grid_multisplitting(8, 4, "block_lower_triangular")
        for s, est in zip(ms.splittings, ms.contraction_estimates):
            t = dense_contraction_matrix(s.M, s.N)
            oracle = float(np.max(np.abs(np.linalg.eigvals(t))))
            assert abs(est - oracle) <= 1e-9 * oracle

    def test_grid_jacobi_application_count(self, grid_problem):
        # classify's operator and tolerance on the 256-point grid
        a = grid_problem(16).A
        diag, b = mslcp.hmatrix._jacobi_parts(a)
        calls = []

        def apply(v):
            calls.append(1)
            return spmv(b, v) / diag

        est = spectral_radius_nonneg(apply, 256, tol=1e-8)
        assert est.converged and est.iterations == len(calls) <= 60
        assert abs(est.value - np.cos(np.pi / 17)) < 1e-10

    def test_positive_operator_probes_once(self, monkeypatch):
        t = np.random.default_rng(3).uniform(0.1, 1.0, (40, 40))
        apply, calls = counted(t)
        probed = []
        real = mslcp.hmatrix.eigs

        def eigs(*args, **kwargs):
            probed.append(len(calls))
            return real(*args, **kwargs)

        monkeypatch.setattr(mslcp.hmatrix, "eigs", eigs)
        est = spectral_radius_nonneg(apply, 40, tol=1e-12)
        assert probed == [1]
        assert est.converged and est.iterations == len(calls)
        oracle = float(np.max(np.abs(np.linalg.eigvals(t))))
        assert abs(est.value - oracle) <= 1e-10 * oracle

    @pytest.mark.parametrize("t", [
        np.tril(np.random.default_rng(4).uniform(0.5, 2.0, (10, 10)), -1),
        # a probe capped at 32 steps would leave this chain to Arnoldi,
        # which reports a converged 1.67 for it
        3.0 * np.diag(np.ones(99), -1)], ids=["lower-10", "chain-100"])
    def test_strictly_lower_triangular_is_exactly_zero(self, t):
        apply, calls = counted(t)
        est = spectral_radius_nonneg(apply, len(t))
        assert est.value == 0.0 and est.converged
        assert est.iterations == len(calls) == len(t)

    def test_rows_off_the_stable_support_are_cut_away(self):
        # a 3-cycle of weight 0.5 read by the end of a 100-row chain whose
        # first row is zero: T^k e loses one chain row per step until only
        # the cycle is left, whose radius is the operator's
        n = 103
        t = np.diag(np.ones(n - 1), -1)
        t[101, 100] = t[102, 101] = 0.0
        t[100, 101] = t[101, 102] = t[102, 100] = 0.5
        apply, calls = counted(t)
        est = spectral_radius_nonneg(apply, n, tol=1e-12)
        assert est.converged and est.iterations == len(calls) <= 110
        assert abs(est.value - 0.5) < 1e-12

    def test_spurious_ritz_value_is_not_reported_converged(self):
        t = chain_into_cycle()
        est = spectral_radius_nonneg(lambda v: t @ v, len(t), tol=1e-8)
        assert not est.converged
        # both bounds hold: the value is an upper bound, lower a lower one
        assert est.lower <= 0.5 * (1 + 1e-12) and est.value >= 0.5

    def test_rough_ritz_vector_is_retried(self):
        # with weight 1 the first Ritz vector's bracket falls 2e-4 short of
        # its Ritz value; the retry at a tighter tolerance passes the check
        t = chain_into_cycle(weight=1.0)
        est = spectral_radius_nonneg(lambda v: t @ v, len(t), tol=1e-8)
        assert est.converged
        assert abs(est.value - 0.5) <= 1e-4 * 0.5
        assert est.lower <= 0.5 * (1 + 1e-12)

    def test_perron_zeros_are_cut_from_the_lower_bound(self):
        # the Ritz vector's rounding noise on the first 12 rows pulls its
        # bracket's lower end below a tenth of the radius
        t = perron_zeros()
        oracle = float(np.max(np.abs(np.linalg.eigvals(t))))
        est = spectral_radius_nonneg(lambda v: t @ v, len(t), tol=1e-12)
        assert est.converged
        assert abs(est.value - oracle) <= 1e-12 * oracle
        assert oracle * (1 - 1e-12) <= est.lower <= oracle * (1 + 1e-12)

    @pytest.mark.parametrize("case", ["grid-24", "grid-3", "reducible"])
    def test_classify_estimate_bits_repeat_across_processes(self, case,
                                                            tmp_path):
        # on the 3-point grid and this reducible matrix the Krylov space of
        # e is invariant, and ARPACK draws random vectors to go on
        if case == "reducible":
            m = next(itertools.islice(reducible_m_matrices(), 93, None))[0]
            assert connected_components(m.to_scipy(),
                                        connection="strong")[0] > 1
            np.save(tmp_path / "a.npy", m.to_dense())
            make = f"SparseMatrix.from_dense(np.load({str(tmp_path / 'a.npy')!r}))"
        else:
            make = f"make_grid_lcp(GridLcpSpec({case[5:]})).A"
        code = ("import numpy as np\n"
                "from mslcp import GridLcpSpec, SparseMatrix, classify, "
                "make_grid_lcp\n"
                f"print(classify({make}).jacobi_radius_estimate.hex())\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        runs = [subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=120,
                               check=True).stdout for _ in range(2)]
        assert runs[0] == runs[1]
        if case != "reducible":
            p = int(case[5:])
            assert abs(float.fromhex(runs[0].strip())
                       - np.cos(np.pi / (p + 1))) < 1e-10


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
        cls = classify(a)
        assert cls.is_h_plus and cls.is_m_matrix
        # dense eigenvalue oracle on the 64x64 Jacobi matrix
        j = dense_jacobi_matrix(a)
        oracle = float(np.max(np.abs(np.linalg.eigvals(j))))
        assert abs(cls.jacobi_radius_estimate - oracle) < 1e-4
        u = cls.witness_u
        assert u is not None and np.all(u > 0)
        assert np.all(j @ u < u)

    def test_indeterminate_band(self):
        # Jacobi matrix [[0,1],[1,0]] has radius exactly 1, inside the band
        # of half-width CLASSIFY_TOL
        cls = classify(SparseMatrix.from_dense([[1.0, -1.0], [-1.0, 1.0]]))
        assert cls.indeterminate
        assert not cls.is_h_matrix
        assert cls.witness_u is None

    @pytest.mark.parametrize("r, indeterminate, is_h", [
        (1.0 - 1e-5, False, True), (1.0 - 1e-7, True, False),
        (1.0 + 1e-7, True, False), (1.0 + 1e-5, False, False)])
    def test_band_half_width_is_classify_tol(self, r, indeterminate, is_h):
        # [[1, -r], [-r, 1]] has Jacobi radius r; the band is 1 +- 1e-6
        assert mslcp.hmatrix.CLASSIFY_TOL == 1e-6
        cls = classify(SparseMatrix.from_dense([[1.0, -r], [-r, 1.0]]))
        assert cls.indeterminate == indeterminate
        assert cls.is_h_matrix == is_h == (cls.witness_u is not None)

    def test_spurious_ritz_value_does_not_reject(self):
        # Arnoldi's converged 1.13 for this radius-0.5 operator fails the
        # bracket check, so the witness decides
        t = chain_into_cycle()
        a = SparseMatrix.from_dense(np.eye(len(t)) - t)
        cls = classify(a)
        assert cls.is_h_plus and cls.is_m_matrix and not cls.indeterminate
        assert np.all(t @ cls.witness_u < cls.witness_u)
        assert not cls.radius_converged
        # the witness bounds the reported radius below one
        assert 0.5 <= cls.jacobi_radius_estimate < 1.0

    def test_rejection_rests_on_the_lower_bound(self):
        # reducible, radius 1.2; the Perron vector is zero on half the rows
        t = perron_zeros()
        np.fill_diagonal(t, 0.0)  # so that t is the Jacobi matrix of I - t
        t *= 1.2 / float(np.max(np.abs(np.linalg.eigvals(t))))
        cls = classify(SparseMatrix.from_dense(np.eye(len(t)) - t))
        assert not cls.is_h_matrix and not cls.indeterminate
        assert cls.witness_u is None and cls.radius_converged
        assert abs(cls.jacobi_radius_estimate - 1.2) < 1e-8

    @pytest.mark.parametrize("n, weight", [(100, 1.5), (700, 1.5),
                                           (2000, 1.0)])
    def test_nilpotent_jacobi_matrix_is_certified(self, n, weight):
        # J = weight * S, S the down-shift: at weight 1.5 the witness grows
        # to about 1.5^(n-1), where adding D^-1 e alone is lost to rounding;
        # at weight 1 it stays near n only because theta is near 1 (theta = 2
        # would overflow it)
        a = SparseMatrix.from_scipy(
            scipy.sparse.eye(n, format="csr")
            - weight * scipy.sparse.eye(n, k=-1, format="csr"))
        cls = classify(a)
        assert cls.is_h_plus and cls.is_m_matrix and not cls.indeterminate
        assert cls.jacobi_radius_estimate == 0.0 and cls.radius_converged
        u = cls.witness_u
        assert np.all(np.isfinite(u)) and np.all(u > 0.0)
        assert np.all(dense_jacobi_matrix(a) @ u < u)

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

