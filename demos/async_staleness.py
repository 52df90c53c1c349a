#!/usr/bin/env python3
"""Asynchronous multisplitting: deterministic staleness replay and real threads.

Shows: the zero-staleness simulator coinciding bit for bit with the
synchronous solver, convergence under bounded staleness with different
update policies, trace-level staleness accounting, and the threaded
executor agreeing with the synchronous limit.

    PYTHONPATH=src python3 demos/async_staleness.py
"""

import numpy as np

from mslcp import (AllEveryStep, AsyncSchedule, GridLcpSpec, InnerSchedule,
                   Partition, RandomFair, RoundRobin, SolverConfig,
                   build_block_splitting, make_grid_lcp, solve_async_sim,
                   solve_async_threaded, solve_sync)

p = 8
prob = make_grid_lcp(GridLcpSpec(p=p))
part = Partition.contiguous(prob.n, 2)
ms = build_block_splitting(prob.A, part, "jacobi")
cfg = SolverConfig(omega=1.0, schedule=InnerSchedule.fixed(2), outer_tol=1e-6)

x_sync, rep_sync = solve_sync(prob, ms, cfg)
print(f"synchronous: {rep_sync.outer_iterations} outer steps, "
      f"residual {rep_sync.final_residual:.2e}")

print()
print("=== zero staleness replays the synchronous iteration exactly ===")
sched0 = AsyncSchedule(staleness_bound=0, policy=AllEveryStep())
x0, rep0 = solve_async_sim(prob, ms, cfg, sched0)
print(f"steps {rep0.outer_iterations} (sync {rep_sync.outer_iterations}); "
      f"bitwise identical result: {np.array_equal(x0, x_sync)}")

print()
print("=== bounded staleness, fair update policies ===")
print(f"{'policy':>16s} {'d':>3s} {'steps':>6s} {'|x - x_sync|':>13s}")
for d in (1, 3, 7):
    for policy, label in [(RoundRobin(2), "roundrobin:2"),
                          (RandomFair(seed=42), "random:42")]:
        sched = AsyncSchedule(staleness_bound=d, policy=policy)
        x, rep = solve_async_sim(prob, ms, cfg, sched)
        print(f"{label:>16s} {d:3d} {rep.outer_iterations:6d} "
              f"{np.max(np.abs(x - x_sync)):13.2e}")

print()
print("=== trace-level staleness accounting ===")
sched = AsyncSchedule(staleness_bound=3, policy=RoundRobin(2),
                      reads="uniform", reads_seed=7)
events = []
_, rep = solve_async_sim(prob, ms, cfg, sched, on_step=events.append)
lags = [e.k - r for e in events for r in e.reads]
print(f"{rep.outer_iterations} steps; read lag min={min(lags)} "
      f"max={max(lags)} mean={np.mean(lags):.2f} (bound 3)")
print(f"first update sets: {[list(e.updated) for e in events[:6]]} ...")

print()
print("=== determinism of the simulator ===")
norms1, norms2 = [], []
x1, _ = solve_async_sim(prob, ms, cfg, sched,
                        on_step=lambda e: norms1.append(e.update_norm))
x2, _ = solve_async_sim(prob, ms, cfg, sched,
                        on_step=lambda e: norms2.append(e.update_norm))
print(f"two replays identical: {np.array_equal(x1, x2) and norms1 == norms2}")

print()
print("=== genuinely concurrent execution ===")
cfg4 = SolverConfig(omega=1.0, schedule=InnerSchedule.fixed(4), outer_tol=1e-6)
x_ref, _ = solve_sync(prob, ms, cfg4)
for run in range(3):
    x, rep = solve_async_threaded(prob, ms, cfg4, workers=2)
    print(f"run {run}: {rep.outer_iterations} block publications, "
          f"residual {rep.final_residual:.2e}, "
          f"|x - x_sync| = {np.max(np.abs(x - x_ref)):.2e}")
print("iterate sequences differ run to run; the limit does not")
