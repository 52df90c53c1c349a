#!/usr/bin/env python3
"""Synchronous relaxed nonstationary multisplitting on the grid benchmark.

Shows: building and validating a multisplitting, the three inner-iteration
schedules, the relaxation range reported by the solver, and the trade-off
between outer iterations and total inner work as the per-step inner count
rises (including the standard-multisplitting baseline).

    PYTHONPATH=src python3 demos/sync_multisplitting.py
"""

import numpy as np

from mslcp import (GridLcpSpec, InnerSchedule, Partition, SolverConfig,
                   build_block_splitting, compute_eta, make_grid_lcp,
                   min_inner_count, reference_solve, solve_sync,
                   validate_multisplitting)

p = 16
prob = make_grid_lcp(GridLcpSpec(p=p))
print(f"problem: {p}x{p} grid complementarity problem, n={prob.n}")

print()
print("=== build and validate a multisplitting ===")
part = Partition.contiguous(prob.n, 2)
for variant in ("jacobi", "block_lower_triangular"):
    ms = build_block_splitting(prob.A, part, variant)
    report = validate_multisplitting(prob.A, ms)
    print(f"{variant:24s} hypotheses ok={report.ok} "
          f"contraction estimates={[round(e, 4) for e in report.contraction_estimates]}")

ms = build_block_splitting(prob.A, part, "jacobi")
gamma = ms.matrix_class.jacobi_radius_estimate
eta = compute_eta(gamma, ms.weighting)
s_min = min_inner_count(ms.splittings[0], eta, max_s=10000)
print(f"gamma={gamma:.4f}, eta=gamma/sum||E_i||={eta:.4f}, "
      f"inner count reaching eta: {s_min}")

print()
print("=== fixed inner counts: outer iterations vs total inner work ===")
ref = reference_solve(prob, tol=1e-12)
print(f"{'schedule':>14s} {'out':>6s} {'inner':>7s} {'residual':>10s} {'|x-x*|':>10s}")
for q in (1, 2, 4, 8):
    cfg = SolverConfig(omega=1.0, schedule=InnerSchedule.fixed(q),
                       outer_tol=1e-6)
    x, rep = solve_sync(prob, ms, cfg)
    err = np.max(np.abs(x - ref.x))
    print(f"{'fixed:' + str(q):>14s} {rep.outer_iterations:6d} "
          f"{rep.total_inner_iterations:7d} {rep.final_residual:10.2e} {err:10.2e}")

print()
print("=== adaptive and tolerance-based schedules ===")
for sched, label in [
    (InnerSchedule.adaptive(0.25), "adaptive:0.25"),
    (InnerSchedule.inner_tolerance(1e-2), "innertol:1e-2"),
    (InnerSchedule.inner_tolerance(1e-8), "innertol:1e-8 (standard baseline)"),
]:
    cfg = SolverConfig(omega=1.0, schedule=sched, outer_tol=1e-6)
    x, rep = solve_sync(prob, ms, cfg)
    print(f"{label:36s} out={rep.outer_iterations:5d} "
          f"inner={rep.total_inner_iterations:6d} residual={rep.final_residual:.2e}")
print("the nonstationary runs spend fewer total inner iterations than the")
print("tight-tolerance baseline, at the price of more outer sweeps")

print()
print("=== relaxation range ===")
cfg = SolverConfig(omega=1.0, schedule=InnerSchedule.fixed(2), outer_tol=1e-6)
_, rep = solve_sync(prob, ms, cfg)
print(f"proven relaxation range: (0, {rep.omega_bound:.4f}); "
      f"omega=1.0 inside: {rep.omega_in_range}")
for omega in (0.5, 0.9, 1.0):
    cfg = SolverConfig(omega=omega, schedule=InnerSchedule.fixed(2),
                       outer_tol=1e-6)
    _, rep = solve_sync(prob, ms, cfg)
    print(f"omega={omega:.1f}: out={rep.outer_iterations:5d} "
          f"residual={rep.final_residual:.2e}")
