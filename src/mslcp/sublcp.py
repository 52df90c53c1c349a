"""Per-processor complementarity subproblems and the brute-force test oracle.

The subproblem for a factor M and forcing vector F is: find y with

    y >= 0,    M y - F >= 0,    y . (M y - F) = 0.

M alone decides how it is solved (``factor_structure``).  For M with no
entry above the diagonal, every built-in factor's case, one projected
forward sweep is exact whatever the signs of the strict-lower entries,
because once the earlier components are fixed each row is a
one-dimensional problem (Bai, SIAM J. Matrix Anal. Appl. 21, 1999); for
diagonal M it is the clamp max(0, F / d).  Only an M with entries above the
diagonal iterates projected Gauss-Seidel, at that function's defaults.
Both are calls to ``mslcp.sparse.gauss_seidel_sweep`` with projection,
which gives the same bits as the sequential row loop.  The solvers' inner
loop (``sync._run_processor_inner``) clamps a diagonal factor itself and
calls ``solve_sub_lcp`` for every other factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .sparse import SparseMatrix, as_vector, gauss_seidel_sweep, spmv


@dataclass(frozen=True)
class LcpProblem:
    """Data (A, f) of the complementarity problem
    x >= 0, A x - f >= 0, x . (A x - f) = 0."""

    A: SparseMatrix
    f: np.ndarray

    def __post_init__(self):
        if not self.A.is_square:
            raise ValueError("coefficient matrix must be square")
        f = as_vector(self.f, self.A.n_rows, name="f").copy()
        f.setflags(write=False)
        object.__setattr__(self, "f", f)

    @property
    def n(self) -> int:
        return self.A.n_rows


@dataclass(frozen=True)
class LcpSolution:
    """A computed solution with its accuracy measures."""

    x: np.ndarray
    residual: float


def natural_residual(prob: LcpProblem, x) -> float:
    """||min(x, A x - f)||_inf; zero exactly at solutions."""
    x = as_vector(x, prob.n, name="x")
    slack = spmv(prob.A, x) - prob.f
    if prob.n == 0:
        return 0.0
    return float(np.max(np.abs(np.minimum(x, slack))))


def projected_gauss_seidel(a: SparseMatrix, f_vec: np.ndarray,
                           x0: np.ndarray | None = None,
                           tol: float = 1e-12,
                           max_sweeps: int = 200000):
    """Projected Gauss-Seidel sweeps until the iterate moves less than ``tol``
    in the max norm.  Returns (x, sweeps, last_change).  ``f_vec`` and
    ``x0`` must be finite vectors of length n (``as_vector``).  A change that
    turns non-finite (the iterate overflowed) raises ``ConvergenceError``
    naming the sweep, since no later sweep can bring it back."""
    if np.any(a.diagonal() <= 0.0):
        raise ValueError("projected Gauss-Seidel needs a positive diagonal")
    f_vec = as_vector(f_vec, a.n_rows, name="forcing vector")
    x = np.zeros(a.n_rows) if x0 is None \
        else as_vector(x0, a.n_rows, name="x0")
    delta = np.inf
    # an overflowing sweep is reported by the ConvergenceError below, not by
    # numpy's warnings on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for sweep in range(1, max_sweeps + 1):
            new = gauss_seidel_sweep(a, f_vec, x, project=True)
            delta = float(np.max(np.abs(new - x), initial=0.0))
            x = new
            if delta < tol:
                return x, sweep, delta
            if not np.isfinite(delta):
                raise ConvergenceError(
                    f"projected Gauss-Seidel: change became non-finite at "
                    f"sweep {sweep}")
    raise ConvergenceError(
        f"projected Gauss-Seidel: change {delta:.3g} still above {tol:.3g} "
        f"after {max_sweeps} sweeps")


def factor_structure(m: SparseMatrix) -> str:
    """How the subproblem for the factor M is solved, read once from M and
    cached in ``m._caches`` (a ``SparseMatrix`` never changes): ``diagonal``
    when every entry is on the diagonal; ``lower_triangular`` when M has no
    entry above the diagonal; ``general`` otherwise."""
    if "structure" not in m._caches:
        rows, cols = m.entry_rows(), m.col_indices
        m._caches["structure"] = "diagonal" if np.all(cols == rows) \
            else "lower_triangular" if np.all(cols <= rows) else "general"
    return m._caches["structure"]


def positive_diagonal(m: SparseMatrix) -> np.ndarray:
    """The diagonal of a subproblem factor M, which must be positive;
    checked once per factor and cached in ``m._caches`` (a failing one is
    not cached)."""
    diag = m._caches.get("positive_diagonal")
    if diag is None:
        diag = m.diagonal()
        if np.any(diag <= 0.0):
            raise ValueError("subproblem factor must have a positive diagonal")
        m._caches["positive_diagonal"] = diag
    return diag


def solve_sub_lcp(m: SparseMatrix, structure: str, f_vec) -> np.ndarray:
    """Solve the subproblem for the factor M, with ``structure`` its
    ``factor_structure``: one projected forward sweep for an exact claim
    (``diagonal`` or ``lower_triangular``) that M bears out, otherwise
    ``projected_gauss_seidel`` at its defaults.  M's diagonal must be
    positive, and the forcing vector is checked for finiteness on every
    call.
    """
    f_vec = as_vector(f_vec, m.n_rows, name="forcing vector")
    positive_diagonal(m)
    if structure in ("diagonal", "lower_triangular") \
            and factor_structure(m) != "general":
        return gauss_seidel_sweep(m, f_vec, project=True)
    x, _, _ = projected_gauss_seidel(m, f_vec)
    return x


def brute_force_lcp(prob: LcpProblem) -> np.ndarray:
    """Reference solution by enumerating every candidate support set.

    For each subset P of indices, solve A[P, P] x_P = f_P with x = 0 off P
    and accept when x_P > -1e-12 and the off-P slacks are >= -1e-12.  Only
    usable for n <= 20.
    """
    n = prob.n
    if n > 20:
        raise ValueError("brute force limited to n <= 20")
    a = prob.A.to_dense()
    f = prob.f
    idx = np.arange(n)
    for mask in range(1 << n):
        p = idx[[(mask >> j) & 1 == 1 for j in range(n)]]
        x = np.zeros(n)
        if len(p):
            sub = a[np.ix_(p, p)]
            try:
                xp = np.linalg.solve(sub, f[p])
            except np.linalg.LinAlgError:
                continue
            if np.any(xp <= -1e-12):
                continue
            x[p] = xp
        slack = a @ x - f
        off = np.ones(n, dtype=bool)
        off[p] = False
        if np.all(slack[off] >= -1e-12):
            return x
    raise ConvergenceError("no support set yields a feasible solution; "
                           "the matrix is likely not H+ (or the solve failed)")
