"""Grid complementarity benchmark family and the high-accuracy reference solver.

The family is the classic five-point stencil on a p-by-p grid: block
tridiagonal with tridiag(-1, 4, -1) diagonal blocks and negated identity
off-diagonal blocks, with forcing vector f_j = sin(2 pi (j+1) / n) for
zero-based j and n = p^2.  The matrix is a symmetric M-matrix (H+ with
positive diagonal), and its Jacobi iteration matrix has spectral radius
cos(pi / (p+1)).

``reference_solve`` is the high-accuracy oracle the tests compare against.
For a Z-matrix with positive diagonal (every off-diagonal entry <= 0), such
as the grid family, it runs the primal-dual active-set method of
Hintermueller, Ito and Kunisch (SIAM J. Optim. 13(3), 2002), which stops
after finitely many steps at the exact solution of an M-matrix problem; any
other matrix, or an active-set answer that misses the tolerance, goes
through projected Gauss-Seidel.  Either way the returned natural residual
is below ``10 * tol``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import spsolve

from .errors import ConvergenceError
# spmv stays bound here because perfbench's tracer patches it
from .sparse import SparseMatrix, as_count, spmv  # noqa: F401
from .sublcp import LcpProblem, LcpSolution, natural_residual, projected_gauss_seidel


@dataclass(frozen=True)
class GridLcpSpec:
    """Benchmark instance descriptor: grid side p (n = p^2) and an optional
    diagonal shift for conditioning experiments (0 matches the standard
    family); ``p`` is stored as ``int`` (``sparse.as_count``)."""

    p: int
    shift: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p", as_count("p", self.p))
        if self.p < 2:
            raise ValueError("grid side must be at least 2")
        if not (np.isfinite(self.shift) and 4.0 + self.shift > 0.0):
            raise ValueError(f"shift {self.shift} must be finite and leave the "
                             f"grid diagonal 4 + shift positive")

    @property
    def n(self) -> int:
        return self.p * self.p


def make_grid_lcp(spec: GridLcpSpec) -> LcpProblem:
    """Assemble the p^2-sized grid complementarity problem: the sum of
    kron(I, tridiag(-1, 4 + shift, -1)) and kron(tridiag(-1, 0, -1), I)."""
    p, n = spec.p, spec.n
    line = scipy.sparse.diags([-1.0, -1.0], [-1, 1], shape=(p, p))
    eye = scipy.sparse.identity(p)
    a = scipy.sparse.kron(eye, line + (4.0 + spec.shift) * eye) \
        + scipy.sparse.kron(line, eye)
    f = np.sin(2.0 * np.pi * (np.arange(n) + 1) / n)
    return LcpProblem(SparseMatrix.from_scipy(a), f)


def _active_set_solve(prob: LcpProblem) -> np.ndarray:
    """Primal-dual active-set steps from the active set {f < 0}: fix x = 0 on
    the active set, solve the inactive block exactly, and re-read the active
    set from the signs of x and of the multiplier A x - f, until the set
    repeats or n + 1 steps have run.  The result is clamped at 0, because the
    direct solve can leave entries a few ulps below it; a singular block
    leaves NaN entries."""
    a, f, n = prob.A.to_scipy(), prob.f, prob.n
    active = f < 0.0
    for _ in range(n + 1):
        free = np.flatnonzero(~active)
        x = np.zeros(n)
        if len(free):
            x[free] = spsolve(a[free][:, free].tocsc(), f[free])
        mult = a @ x - f
        mult[free] = 0.0
        next_active = mult - x > 0.0
        if np.array_equal(next_active, active):
            break
        active = next_active
    return np.maximum(x, 0.0)


def reference_solve(prob: LcpProblem, tol: float = 1e-10,
                    max_sweeps: int = 500000) -> LcpSolution:
    """High-accuracy oracle whose natural residual is below ``10 * tol``.

    A Z-matrix with positive diagonal is solved by primal-dual active-set
    steps, which for an M-matrix end at the exact solution, up to rounding.
    Anything else (a matrix that is not a Z-matrix, a Z-matrix that is not
    H+ and gives a singular block or a wrong answer, or a ``tol`` that the
    active-set answer misses) runs projected Gauss-Seidel, from the active-set
    answer when it is finite and from zero otherwise, until the iterate
    moves less than ``tol`` and the natural residual is below ``10 * tol``;
    ``ConvergenceError`` when ``max_sweeps`` sweeps do not get there, or at
    once when the active-set answer is not finite and a linear program finds
    the feasible set {x >= 0, A x >= f} empty, so that no solution exists.
    """
    a = prob.A
    x = np.zeros(prob.n)
    note = ""
    off_diag = a.entry_rows() != a.col_indices
    if np.all(a.values[off_diag] <= 0.0) and np.all(a.diagonal() > 0.0):
        y = _active_set_solve(prob)
        if not np.all(np.isfinite(y)):
            note = " (the active-set solve gave non-finite entries)"
            # Every solution is feasible, and a feasible Z-matrix problem has
            # a least-element solution (Cottle, Pang & Stone, section 3.11),
            # so an empty feasible set is the one case the sweeps below
            # cannot solve.  scipy.optimize is imported here only: loading
            # it adds about 17 MB of resident memory to every process.
            from scipy.optimize import linprog
            if linprog(np.zeros(prob.n), A_ub=-a.to_scipy(), b_ub=-prob.f,
                       bounds=(0, None), method="highs").status == 2:
                raise ConvergenceError(
                    "reference solve: no solution, because the feasible set "
                    "{x >= 0, A x >= f} is empty" + note)
        else:
            res = natural_residual(prob, y)
            if res < 10.0 * tol:
                return LcpSolution(x=y, residual=res)
            x = y
            note = (f" (started from the active-set solve, residual "
                    f"{res:.3g})")
    remaining = max_sweeps
    while True:
        try:
            x, used, _ = projected_gauss_seidel(a, prob.f, x0=x, tol=tol,
                                                max_sweeps=remaining)
        except ConvergenceError as err:
            raise ConvergenceError(f"reference solve: {err}{note}") from err
        remaining -= used
        res = natural_residual(prob, x)
        if res < 10.0 * tol:
            return LcpSolution(x=x, residual=res)
        if remaining <= 0:
            raise ConvergenceError(
                f"reference solve: residual {res:.3g} above {10 * tol:.3g} "
                f"after {max_sweeps} sweeps{note}")

