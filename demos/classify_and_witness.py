#!/usr/bin/env python3
"""Tour of the matrix-analysis layer: comparison matrices, H/M classification,
spectral radius estimation, and positive witness certificates.

Run with the package importable, e.g. from the repository root:

    PYTHONPATH=src python3 demos/classify_and_witness.py
"""

import numpy as np

from mslcp import (GridLcpSpec, SparseMatrix, classify, comparison_matrix,
                   make_grid_lcp, spectral_radius_nonneg, spmv)
from mslcp.hmatrix import MAX_POWER_ITERS

print("=== comparison matrices ===")
a = SparseMatrix.from_dense([[-3.0, 1.0], [2.0, 5.0]])
print("A =")
print(a.to_dense())
print("<A> =")
print(comparison_matrix(a).to_dense())

print()
print("=== classification of small matrices ===")
for dense, label in [
    ([[4.0, -1.0], [-1.0, 4.0]], "diagonally dominant Z-matrix"),
    ([[1.0, -2.0], [-2.0, 1.0]], "weak diagonal"),
    ([[-3.0, 1.0], [2.0, 5.0]], "H-matrix with a negative diagonal entry"),
]:
    cls = classify(SparseMatrix.from_dense(dense))
    print(f"{label:45s} H={cls.is_h_matrix!s:5s} H+={cls.is_h_plus!s:5s} "
          f"M={cls.is_m_matrix!s:5s} radius~{cls.jacobi_radius_estimate:.4f}")

print()
print("=== grid family: estimated radius vs the closed form cos(pi/(p+1)) ===")
print(f"(classify caps its operator applications at {MAX_POWER_ITERS})")
for p in (4, 8, 16, 32):
    prob = make_grid_lcp(GridLcpSpec(p=p))
    cls = classify(prob.A)
    exact = np.cos(np.pi / (p + 1))
    print(f"p={p:3d} n={p * p:5d} estimate={cls.jacobi_radius_estimate:.8f} "
          f"closed-form={exact:.8f} |diff|={abs(cls.jacobi_radius_estimate - exact):.1e}")

print()
print("=== the witness certificate ===")
prob = make_grid_lcp(GridLcpSpec(p=8))
cls = classify(prob.A)
u = cls.witness_u
# J u < u strictly, with J the Jacobi matrix of the comparison matrix:
# that single positive vector certifies the spectral radius is below one
diag = np.abs(prob.A.diagonal())
comp = comparison_matrix(prob.A)
ju = (diag * u - spmv(comp, u)) / diag  # J u = (D - <A>) u / D
print(f"witness length {len(u)}, min {u.min():.4f}, max {u.max():.4f}")
print(f"max (J u)_i / u_i = {np.max(ju / u):.6f} < 1")

print()
print("=== operator-level radius estimation ===")
t = np.array([[0.0, 2.0], [0.125, 0.0]])  # periodic pattern, radius 0.5
est = spectral_radius_nonneg(lambda v: t @ v, 2, tol=1e-12)
print(f"periodic 2x2 pattern: estimate {est.value:.12f} "
      f"(converged={est.converged} in {est.iterations} iterations)")
