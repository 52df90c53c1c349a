"""Independent oracle for the benchmark: a primal-dual active-set solve.

The linear complementarity problem x >= 0, A x - f >= 0, x . (A x - f) = 0
with an M-matrix A is solved by the primal-dual active-set method of
Hintermueller, Ito and Kunisch (SIAM J. Optim. 13(3), 2002).  Each step
fixes x = 0 on the active set, solves the inactive block exactly with
scipy's sparse direct solver and re-reads the active set from the signs of
x and of the multiplier A x - f.  For M-matrices the method stops after
finitely many steps at the exact solution.

Nothing here calls into the package under test: the matrix is read from its
CSR arrays, and the residual is computed with scipy.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.linalg import spsolve

ACCEPT_RESIDUAL = 1e-12


class OracleError(RuntimeError):
    """The oracle did not reach a solution it can vouch for."""


def to_csr(a) -> csr_array:
    """scipy CSR copy of a matrix given by its ``row_offsets``,
    ``col_indices`` and ``values`` arrays."""
    return csr_array((np.array(a.values), np.array(a.col_indices),
                      np.array(a.row_offsets)), shape=(a.n_rows, a.n_cols))


def natural_residual(a: csr_array, f: np.ndarray, x: np.ndarray) -> float:
    """||min(x, A x - f)||_inf, computed with scipy's matrix-vector product."""
    if len(x) == 0:
        return 0.0
    return float(np.max(np.abs(np.minimum(x, a @ x - f))))


def active_set_solve(a: csr_array, f: np.ndarray, max_steps: int = 500):
    """Solve the LCP (A, f) for an M-matrix A; returns (x, steps).

    Raises OracleError when the active set has not settled within
    ``max_steps`` or the result's natural residual exceeds
    ``ACCEPT_RESIDUAL``.
    """
    f = np.asarray(f, dtype=np.float64)
    n = len(f)
    x = np.zeros(n)
    active = -f > 0.0  # multiplier A x - f at x = 0
    for step in range(1, max_steps + 1):
        free = np.flatnonzero(~active)
        x = np.zeros(n)
        if len(free):
            block = a[free][:, free].tocsc()
            x[free] = spsolve(block, f[free])
        mult = a @ x - f
        mult[free] = 0.0
        next_active = mult - x > 0.0
        if np.array_equal(next_active, active):
            break
        active = next_active
    else:
        raise OracleError(f"active set still changing after {max_steps} steps")
    res = natural_residual(a, f, x)
    if not res <= ACCEPT_RESIDUAL:
        raise OracleError(f"oracle residual {res:.3g} above {ACCEPT_RESIDUAL:g}")
    return x, step
