"""Grid complementarity benchmark family and the high-accuracy reference solver.

The family is the classic five-point stencil on a p-by-p grid: block
tridiagonal with tridiag(-1, 4, -1) diagonal blocks and negated identity
off-diagonal blocks, with forcing vector f_j = sin(2 pi (j+1) / n) for
zero-based j and n = p^2.  The matrix is a symmetric M-matrix (H+ with
positive diagonal), and its Jacobi iteration matrix has spectral radius
cos(pi / (p+1)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .sparse import SparseMatrix
from .sublcp import LcpProblem, LcpSolution, natural_residual, projected_gauss_seidel
from .sparse import spmv


@dataclass(frozen=True)
class GridLcpSpec:
    """Benchmark instance descriptor: grid side p (n = p^2) and an optional
    diagonal shift for conditioning experiments (0 matches the standard
    family)."""

    p: int
    shift: float = 0.0

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("grid side must be at least 2")
        if not (np.isfinite(self.shift) and 4.0 + self.shift > 0.0):
            raise ValueError(f"shift {self.shift} must be finite and leave the "
                             f"grid diagonal 4 + shift positive")

    @property
    def n(self) -> int:
        return self.p * self.p


def make_grid_lcp(spec: GridLcpSpec) -> LcpProblem:
    """Assemble the p^2-sized grid complementarity problem."""
    p = spec.p
    n = spec.n
    diag_val = 4.0 + spec.shift
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
    a = SparseMatrix(n, n, offsets, np.asarray(cols, dtype=np.int64),
                     np.asarray(vals))
    f = np.sin(2.0 * np.pi * (np.arange(n) + 1) / n)
    return LcpProblem(a, f)


def reference_solve(prob: LcpProblem, tol: float = 1e-10,
                    max_sweeps: int = 500000) -> LcpSolution:
    """High-accuracy oracle: projected Gauss-Seidel swept until the iterate
    moves less than ``tol`` and the natural residual is below ``10 * tol``."""
    x = np.zeros(prob.n)
    remaining = max_sweeps
    while True:
        x, used, _ = projected_gauss_seidel(prob.A, prob.f, x0=x, tol=tol,
                                            max_sweeps=remaining)
        remaining -= used
        res = natural_residual(prob, x)
        if res < 10.0 * tol:
            break
        if remaining <= 0:
            raise ConvergenceError(
                f"reference solve: residual {res:.3g} above {10 * tol:.3g} "
                f"after {max_sweeps} sweeps")
    gap = abs(float(x @ (spmv(prob.A, x) - prob.f)))
    return LcpSolution(x=x, residual=res, complementarity_gap=gap)
