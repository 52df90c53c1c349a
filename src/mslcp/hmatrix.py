"""Spectral-radius estimation and H/M-matrix classification.

The H-matrix test is iterative rather than exact: the spectral radius of the
Jacobi iteration matrix J = |D|^-1 |B| (D the diagonal part, B the
off-diagonal part of the comparison matrix) is estimated by power iteration,
and a positive vector u with J u < u is produced as an independent
certificate whenever the radius is reported below one.  Near the boundary
the classification is reported as indeterminate instead of guessed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import spsolve

from .errors import ConvergenceError
from .sparse import SparseMatrix, as_vector, comparison_matrix, spmv


@dataclass(frozen=True)
class SpectralRadiusEstimate:
    """Power-iteration estimate of a spectral radius.

    ``converged`` is False when the iteration budget ran out; the value is
    then the best estimate so far, not a certified one.
    """

    value: float
    converged: bool
    iterations: int

    def __float__(self) -> float:
        return self.value


def spectral_radius_nonneg(apply, n: int, tol: float = 1e-10,
                           max_iters: int = 50000) -> SpectralRadiusEstimate:
    """Estimate the spectral radius of an entrywise-nonnegative linear operator.

    Power iteration on the shifted operator ``v -> apply(v) + v`` starting
    from the all-ones vector; the shift keeps the iteration convergent for
    periodic (e.g. bipartite) nonnegative patterns, whose unshifted power
    sequences oscillate, and moves the radius by exactly one.

    Parameters
    ----------
    apply : callable
        Maps a length-``n`` vector to the operator image, entrywise >= 0.
    n : int
        Operator dimension, >= 1.
    tol : float
        Relative-change stopping threshold on the estimate.
    max_iters : int
        Iteration budget; exceeding it returns ``converged=False``.
    """
    if n < 1:
        raise ValueError("operator dimension must be at least 1")
    # exact-annihilation probe: for nonnegative T, T^k e = 0 proves T^k = 0,
    # so the radius is exactly zero.  Strictly triangular patterns (common
    # splitting leftovers) are settled here; the shifted iteration below
    # would only crawl toward them polynomially.
    z = np.ones(n)
    for it in range(1, min(n, 32) + 1):
        z = np.asarray(apply(z), dtype=np.float64)
        if float(np.max(z)) == 0.0:
            return SpectralRadiusEstimate(0.0, True, it)
    v = np.ones(n)
    est = np.inf
    for it in range(1, max_iters + 1):
        w = np.asarray(apply(v), dtype=np.float64) + v
        norm = float(np.max(np.abs(w)))
        if norm == 0.0:
            return SpectralRadiusEstimate(0.0, True, it)
        prev, est = est, norm
        v_new = w / norm
        # the estimate alone can stall on plateaus (e.g. grid stencils whose
        # interior row sums match exactly for the first ~diameter steps), so
        # also require the normalized iterate to be stationary
        drift = float(np.max(np.abs(v_new - v)))
        v = v_new
        if abs(est - prev) <= tol * max(est, 1e-300) and drift <= tol:
            return SpectralRadiusEstimate(max(est - 1.0, 0.0), True, it)
    return SpectralRadiusEstimate(max(est - 1.0, 0.0), False, max_iters)


@dataclass(frozen=True)
class MatrixClass:
    """Classification flags for a square matrix.

    ``witness_u`` is a strictly positive vector with J u < u componentwise
    (J the Jacobi matrix of the comparison matrix), present exactly when the
    H-matrix test succeeded.  ``indeterminate`` is set when the radius
    estimate fell within ``tol`` of one and no call could be made.
    """

    is_z_pattern: bool
    is_m_matrix: bool
    is_h_matrix: bool
    is_h_plus: bool
    witness_u: np.ndarray | None
    jacobi_radius_estimate: float
    indeterminate: bool = False


def _jacobi_parts(a: SparseMatrix):
    """Diagonal |d| of the comparison matrix and the nonnegative off-diagonal
    part B with <A> = D - B."""
    comp = comparison_matrix(a)
    diag = np.abs(a.diagonal())
    if np.any(diag == 0.0):
        raise ValueError("classification requires nonzero diagonal entries")
    off = comp.entry_rows() != comp.col_indices
    b = comp.same_pattern(np.where(off, -comp.values, 0.0))
    return diag, b


def classify(a: SparseMatrix, tol: float = 1e-6,
             max_power_iters: int = 20000) -> MatrixClass:
    """Classify a square matrix as Z-patterned / M / H / H+.

    The H test estimates rho(J) by power iteration and, when the estimate
    falls below ``1 - tol``, certifies the verdict with a witness u > 0
    satisfying J u < u, built by the monotone fixed-point iteration
    u <- J u + D^-1 e (its limit is <A>^-1 e when <A> is an M-matrix).  The
    witness is sound on its own, so radii far below one are accepted even
    when the power sequence itself has not settled.  Converged estimates
    within ``tol`` of one are reported indeterminate; failure to either
    certify or reject within the budget raises.
    """
    if not a.is_square:
        raise ValueError("classification requires a square matrix")
    diag, b = _jacobi_parts(a)
    n = a.n_rows
    est = spectral_radius_nonneg(lambda v: spmv(b, v) / diag, n,
                                 tol=min(tol, 1e-8), max_iters=max_power_iters)
    rho = est.value

    witness = None
    is_h = False
    indeterminate = False
    if est.converged and rho >= 1.0 + tol:
        pass  # firmly rejected
    elif est.converged and rho > 1.0 - tol:
        indeterminate = True  # estimate too close to one to call either way
    else:
        # estimate below the band (possibly unconverged near-zero radii, where
        # the power sequence is slow but the certificate below is fast): the
        # call rests on the witness, which is sound on its own
        c = 1.0 / diag
        u = c.copy()
        for _ in range(max_power_iters):
            u_next = spmv(b, u) / diag + c
            if np.all(u_next - c < u):
                witness = u
                is_h = True
                break
            u = u_next
        if witness is None:
            raise ConvergenceError(
                f"no certificate J u < u found within {max_power_iters} "
                f"iterations (radius estimate {rho:.6g}"
                + ("" if est.converged else ", unconverged") + ")")

    on_diag = a.entry_rows() == a.col_indices
    z_pattern = bool(np.all(a.values[~on_diag] <= 0.0))
    pos_diag = bool(np.all(a.diagonal() > 0.0))
    return MatrixClass(
        is_z_pattern=z_pattern,
        is_m_matrix=is_h and z_pattern and pos_diag,
        is_h_matrix=is_h,
        is_h_plus=is_h and pos_diag,
        witness_u=witness,
        jacobi_radius_estimate=rho,
        indeterminate=indeterminate,
    )


def weighted_max_norm(v, w) -> float:
    """max_j |v_j| / w_j for a strictly positive weight vector."""
    v = as_vector(v, name="v")
    w = as_vector(w, len(v), name="w")
    if np.any(w <= 0.0):
        raise ValueError("weights must be strictly positive")
    if len(v) == 0:
        return 0.0
    return float(np.max(np.abs(v) / w))


def solve_m_matrix(m: SparseMatrix, b,
                   matrix_class: MatrixClass | None = None) -> np.ndarray:
    """Solve M u = b for an M-matrix M and b >= 0 by scipy's sparse LU.

    M^-1 >= 0, so the exact u is nonnegative; entries the direct solve
    leaves a few ulps below zero are clamped to 0.0.

    Parameters
    ----------
    matrix_class : MatrixClass, optional
        Prior classification of ``m``; computed here when omitted.
    """
    b = as_vector(b, m.n_rows, name="b")
    if np.any(b < 0.0):
        raise ValueError("right-hand side must be nonnegative")
    if m.n_rows == 0:
        return np.zeros(0)
    cls = matrix_class if matrix_class is not None else classify(m)
    if not cls.is_m_matrix:
        raise ValueError("coefficient matrix is not classified as an M-matrix")
    return np.maximum(spsolve(m.to_scipy().tocsc(), b), 0.0)
