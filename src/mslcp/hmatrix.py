"""Spectral-radius estimation and H/M-matrix classification.

The H-matrix test is iterative rather than exact: the spectral radius of the
Jacobi iteration matrix J = |D|^-1 |B| (D the diagonal part, B the
off-diagonal part of the comparison matrix) is estimated by ARPACK's
implicitly restarted Arnoldi method (``scipy.sparse.linalg.eigs``) and
checked with Collatz-Wielandt bounds; a matrix is rejected only when such a
lower bound exceeds one, and a positive vector u with J u < u is produced as
an independent certificate whenever it is accepted.  Near the boundary the
classification is reported as indeterminate instead of guessed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

from .errors import ConvergenceError
from .sparse import SparseMatrix, spmv

# classify's cap on its estimate's operator applications and witness steps
MAX_POWER_ITERS = 20000
# classify's half-width of the indeterminate band around a radius of one
CLASSIFY_TOL = 1e-6


@dataclass(frozen=True)
class SpectralRadiusEstimate:
    """Estimate of the spectral radius of a nonnegative operator.

    ``iterations`` counts every application of the operator.  ``lower`` is a
    Collatz-Wielandt lower bound on the radius (see ``spectral_radius_nonneg``),
    or the dense radius for n <= 2.  Past the probe and the dense n <= 2
    case, ``converged`` is True only when ``value`` is a Ritz value that
    ``lower`` and the Ritz vector's bracket confirm.  When it is False (the
    application cap or ARPACK's restart limit was reached, or the check
    failed), ``value`` is the least upper bound on the radius found, not an
    estimate of it.
    """

    value: float
    converged: bool
    iterations: int
    lower: float = 0.0


class _BudgetSpent(Exception):
    """Raised inside the ARPACK operator once the application cap is spent."""


def _collatz_wielandt(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Bracket (min, max) of y_i / x_i for y = T x, T >= 0, x >= 0, x != 0.

    The min over x_i > 0 is a lower bound on rho(T); the max is an upper
    bound when x > 0, and infinite otherwise."""
    pos = x > 0.0
    ratio = y[pos] / x[pos]
    return float(ratio.min()), float(ratio.max()) if pos.all() else np.inf


def spectral_radius_nonneg(apply, n: int, tol: float = 1e-10,
                           max_iters: int = 50000) -> SpectralRadiusEstimate:
    """Estimate the spectral radius of an entrywise-nonnegative linear operator.

    A probe first applies T to e = (1, ..., 1) until T^k e has the support
    of T^(k-1) e, at most n times; for most operators T e > 0 and k = 1.
    T^k e = 0 proves T^k = 0, so the radius is exactly zero (strictly
    triangular splitting leftovers end here).  Otherwise the support S of
    T^k e stays S for every later power, and a row outside it reads only
    rows outside it, so T is block triangular with a nilpotent block off S
    and rho(T) = rho(T[S, S]); the estimate below runs on T[S, S].  Cutting
    that block away matters: a long nilpotent chain is so far from normal
    that Arnoldi reports spurious Ritz values for it.  The probe's last step
    x = T^(k-1) e, y = T^k e also gives the first Collatz-Wielandt bracket:
    for x >= 0, x != 0 and y = T x, min y_i / x_i over x_i > 0 is a lower
    bound on rho(T), and max y_i / x_i an upper bound when x > 0.

    The radius of T >= 0 is its Perron root, the eigenvalue with the largest
    real part, which implicitly restarted Arnoldi (ARPACK, through
    ``scipy.sparse.linalg.eigs`` with ``which="LR"``) finds without the +I
    shift that periodic patterns need under power iteration.  It starts from
    e, which has a positive component along the Perron vector; a fixed start
    makes reruns give the same bits.  ``eigs`` needs n >= 3; for n <= 2 the
    radius is read densely from the columns T e_j.

    ARPACK's own test only bounds the Arnoldi residual, and on operators far
    from normal it reports spurious Ritz values: a 30-row chain of weight 3
    that reads a 3-cycle of weight 0.5 gives a "converged" 1.13 for a radius
    of 0.5.  So the Ritz value theta is checked against the bracket of its
    Ritz vector x = |v| (one more application).  Where the Perron vector has
    zeros, rounding fills them with noise that spoils the lower bound, so
    while it falls short, x is cut to the rows whose ratio reaches
    theta (1 - sqrt(tol)) and the bracket taken again (one application per
    cut; every cut drops a row).  theta is reported converged only when the
    best lower bound lies within sqrt(tol) of it and theta does not exceed
    the upper bound by more than that; the value is then the larger of
    theta and the lower bound.  A failed check is retried once with
    ARPACK's tolerance divided by 10^4, since the Ritz vector of a badly
    conditioned Perron vector can be too rough for the check; a spurious
    Ritz value fails both.

    Parameters
    ----------
    apply : callable
        Maps a length-``n`` vector to the operator image, entrywise >= 0.
    n : int
        Operator dimension, >= 1.
    tol : float
        ARPACK's relative accuracy for the Ritz value (0 asks for machine
        precision); its square root is the slack of the bracket check.
    max_iters : int
        Cap on the operator applications, probe and checks included, >= 1.
        Reaching it returns ``converged=False`` with the best upper bound.
    """
    if n < 1:
        raise ValueError("operator dimension must be at least 1")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    z = np.ones(n)
    for k in range(1, min(n, max_iters) + 1):
        prev, z = z, np.asarray(apply(z), dtype=np.float64)
        top = float(np.max(z))
        if top == 0.0:
            return SpectralRadiusEstimate(0.0, True, k)
        stable = np.array_equal(z > 0.0, prev > 0.0)
        if stable:
            break
    keep = np.flatnonzero(z > 0.0)
    # prev > 0 on keep.  T[keep, keep] maps prev[keep] to at most z[keep],
    # and to exactly z[keep] once prev vanishes off keep, so the bracket's
    # max is an upper bound and its min a lower one only for a stable
    # support.  For T >= 0 also ||T^k||_inf = ||T^k e||_inf >= rho(T)^k.
    lower, upper = _collatz_wielandt(prev[keep], z[keep])
    lower = lower if stable else 0.0
    upper = min(upper, top ** (1.0 / k))
    budget = max_iters - k
    if len(keep) < n:
        full, full_n, n = apply, n, len(keep)

        def on_support(v):
            x = np.zeros(full_n)
            x[keep] = v
            return np.asarray(full(x), dtype=np.float64)[keep]

        apply = on_support

    if n <= 2:
        if budget < n:
            return SpectralRadiusEstimate(upper, False, k, lower)
        cols = [np.asarray(apply(e_j), dtype=np.float64) for e_j in np.eye(n)]
        radius = float(np.max(np.abs(np.linalg.eigvals(np.column_stack(cols)))))
        return SpectralRadiusEstimate(radius, True, k + n, max(lower, radius))

    applied = 0

    def matvec(v):
        nonlocal applied
        if applied == budget:
            raise _BudgetSpent
        applied += 1
        return np.asarray(apply(v), dtype=np.float64)

    op = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    eps = np.finfo(np.float64).eps
    slack = max(tol, eps) ** 0.5
    # a tolerance of 0 asks ARPACK for machine precision
    retry = tol * 1e-4 if tol * 1e-4 > eps else 0.0
    try:
        for arpack_tol in (tol, retry) if tol > 0.0 else (0.0,):
            vals, vecs = eigs(op, k=1, which="LR", v0=np.ones(n),
                              tol=arpack_tol)
            theta = float(vals[0].real)
            x = np.abs(vecs[:, 0])
            y = matvec(x)
            lo, hi = _collatz_wielandt(x, y)
            upper = min(upper, hi)
            lower = max(lower, lo)
            cut = theta * (1.0 - slack)
            # each pass drops the rows below the cut, so the support shrinks
            while lo < cut:
                x = np.where(y >= cut * x, x, 0.0)
                if not np.any(x > 0.0):
                    break
                y = matvec(x)
                lo = _collatz_wielandt(x, y)[0]
                lower = max(lower, lo)
            if 0.0 < theta and cut <= lower <= theta * (1.0 + slack) \
                    and theta <= upper * (1.0 + slack):
                return SpectralRadiusEstimate(max(theta, lower), True,
                                              k + applied, lower)
    except (_BudgetSpent, ArpackNoConvergence):
        pass
    return SpectralRadiusEstimate(upper, False, k + applied, lower)


@dataclass(frozen=True, eq=False)
class MatrixClass:
    """Classification flags for a square matrix.

    ``witness_u`` is a strictly positive vector with J u < u componentwise
    (J the Jacobi matrix of the comparison matrix), present exactly when the
    H-matrix test succeeded.  ``indeterminate`` is set when the radius
    estimate fell within ``CLASSIFY_TOL`` of one and no call could be made.
    ``radius_converged`` is False when ``jacobi_radius_estimate`` is an
    upper bound on rho(J) rather than a converged estimate of it.
    """

    is_z_pattern: bool
    is_m_matrix: bool
    is_h_matrix: bool
    is_h_plus: bool
    witness_u: np.ndarray | None
    jacobi_radius_estimate: float
    indeterminate: bool = False
    radius_converged: bool = True


def _jacobi_parts(a: SparseMatrix):
    """Diagonal |d| of A and the off-diagonal magnitudes B = |offdiag(A)|, so
    that the comparison matrix is <A> = D - B and J = D^-1 B."""
    diag = np.abs(a.diagonal())
    if np.any(diag == 0.0):
        raise ValueError("classification requires nonzero diagonal entries")
    off = a.entry_rows() != a.col_indices
    return diag, a.same_pattern(np.where(off, np.abs(a.values), 0.0))


def classify(a: SparseMatrix) -> MatrixClass:
    """Classify a square matrix as Z-patterned / M / H / H+.

    The H test estimates rho(J) with ``spectral_radius_nonneg`` at ARPACK
    tolerance 1e-8.  With tol = ``CLASSIFY_TOL`` (1e-6), it rejects only
    when the estimate's Collatz-Wielandt lower bound reaches ``1 + tol``,
    which proves rho(J) > 1.  A converged estimate within ``tol`` of one is
    reported indeterminate.  Any other outcome, an unconverged estimate (an
    upper bound on rho(J)) included, goes to the witness: u > 0 satisfying
    J u < u, which proves rho(J) < 1 on its own.  It is built by
    u <- D^-1 e + theta J u with theta = 1 + tol, testing J u < u on each
    iterate.  The iteration converges exactly when theta rho(J) < 1, that
    is for rho(J) < 1 / (1 + tol), the range below the indeterminate band,
    and its fixed point has J u = (u - D^-1 e) / theta < u / theta: a
    relative margin of about ``tol`` that rounding cannot erase, even where
    u is huge (for I - 1.5 S, S the 100 x 100 down-shift, u grows to about
    1.5^99).  For an unconverged estimate the reported radius is then the
    witness's bound max_i (J u)_i / u_i < 1 when that is smaller.  Failure
    to either certify or reject within the budget raises.
    ``MAX_POWER_ITERS`` caps both the operator applications of the estimate
    and the witness iterations.
    """
    if not a.is_square:
        raise ValueError("classification requires a square matrix")
    diag, b = _jacobi_parts(a)
    n = a.n_rows
    est = spectral_radius_nonneg(lambda v: spmv(b, v) / diag, n,
                                 tol=1e-8, max_iters=MAX_POWER_ITERS)
    rho = est.value

    witness = None
    is_h = False
    indeterminate = False
    if est.lower >= 1.0 + CLASSIFY_TOL:
        pass  # firmly rejected: rho(J) >= est.lower
    elif est.converged and rho > 1.0 - CLASSIFY_TOL:
        indeterminate = True  # estimate too close to one to call either way
    else:
        # estimate below the band, or unconverged (then only an upper bound):
        # the call rests on the witness, which is sound on its own
        c = 1.0 / diag
        theta = 1.0 + CLASSIFY_TOL
        u = c
        for _ in range(MAX_POWER_ITERS):
            ju = spmv(b, u) / diag
            if np.all(ju < u):
                witness = u
                is_h = True
                break
            u = c + theta * ju
        if witness is None:
            raise ConvergenceError(
                f"no certificate J u < u found within {MAX_POWER_ITERS} "
                f"iterations (radius estimate {rho:.6g}"
                + ("" if est.converged else ", unconverged") + ")")
        if not est.converged:
            rho = min(rho, float(np.max(ju / witness)))

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
        radius_converged=est.converged,
    )
