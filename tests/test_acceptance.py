"""Acceptance suite: one criterion per numbered test, each printing a
pass/fail line with timing.

Criterion 2 note: its third clause (final iterate within 1e-5 of the tight
reference) cannot hold under the required update-norm stopping rule on the
larger grids: stopping when the step moves less than 1e-6 leaves a true
error of about 1e-6 * r / (1 - r) along the slowest error mode, and the
per-step contraction r approaches one as the grid grows (measured errors:
3.6e-5 at p=16/q=1 up to 1.4e-4 at p=32/q=1).  Those parameter combinations
are marked as strict expected failures; the stop-rule and residual clauses
hold everywhere.
"""

import functools
import sys
import time

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from mslcp import (AsyncSchedule, InnerSchedule, LcpProblem, Partition,
                   RandomFair, RoundRobin, SolverConfig, SparseMatrix,
                   brute_force_lcp, build_block_splitting, classify,
                   min_inner_count, solve_async_sim, solve_async_threaded,
                   solve_sync)
from mslcp.splitting import ContractionOperator, validate_multisplitting

from conftest import (dense_contraction_matrix, dense_jacobi_matrix,
                      random_sparse_hplus, record_acceptance_line,
                      weighted_max_norm)


def announce(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"acceptance criterion {num} [{name}]: {status}"
    if detail:
        line += f" ({detail})"
    record_acceptance_line(line)
    print(line, file=sys.__stdout__, flush=True)


def criterion(num, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                announce(num, name, False)
                raise
            elapsed = time.perf_counter() - start
            announce(num, name, True,
                     (detail + ", " if detail else "") + f"{elapsed:.1f}s")
        return run
    return wrap


# -- criterion 1: oracle equivalence ----------------------------------------

@criterion(1, "oracle equivalence on random problems")
def test_c1_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 11))
        a = random_sparse_hplus(rng, n)
        prob = LcpProblem(a, rng.standard_normal(n) * 2.0)
        ms = build_block_splitting(a, Partition.contiguous(n, min(2, n)),
                                   "jacobi")
        cfg = SolverConfig(omega=1.0, schedule=InnerSchedule.fixed(2),
                           outer_tol=1e-12)
        x, rep = solve_sync(prob, ms, cfg)
        assert rep.converged
        err = float(np.max(np.abs(x - brute_force_lcp(prob))))
        worst = max(worst, err)
        assert err < 1e-8
    return f"200 problems, worst deviation {worst:.2e}"


# -- criterion 2: grid problem correctness -----------------------------------

C2_CASES = [(p, m, q) for p in (8, 16, 32) for m in (2, 3)
            for q in (1, 2, 4, 8)]
# update-norm stopping at 1e-6 cannot reach 1e-5 accuracy at these sizes:
# the limiting contraction factor r gives a final error near 1e-6 * r/(1-r)
C2_BEYOND_REACH = {(16, 1), (16, 2), (32, 1), (32, 2), (32, 4), (32, 8)}


@pytest.fixture(scope="module")
def c2_runs(grid_problem, grid_reference, grid_multisplitting):
    results = {}
    for p, m, q in C2_CASES:
        prob = grid_problem(p)
        ms = grid_multisplitting(p, m, "jacobi")
        cfg = SolverConfig(omega=1.0, schedule=InnerSchedule.fixed(q),
                           outer_tol=1e-6)
        x, rep = solve_sync(prob, ms, cfg)
        err = float(np.max(np.abs(x - grid_reference(p).x)))
        results[(p, m, q)] = (rep, err)
    return results


@criterion(2, "grid family: stop rule and residual (reference agreement "
              "asserted per-case below)")
def test_c2_stopping_and_residual(c2_runs):
    agree = sum(1 for _, err in c2_runs.values() if err < 1e-5)
    for (p, m, q), (rep, err) in c2_runs.items():
        assert rep.converged, f"p={p} m={m} q={q} did not converge"
        assert rep.final_residual < 1e-5, \
            f"p={p} m={m} q={q} residual {rep.final_residual:.2e}"
    return (f"24/24 converged under 1e-6 stop rule with residual < 1e-5; "
            f"{agree}/24 also within 1e-5 of the 1e-12 reference")


@pytest.mark.parametrize(
    "p,m,q",
    [pytest.param(p, m, q,
                  marks=[pytest.mark.xfail(
                      reason="update-norm stop at 1e-6 leaves a true error "
                             "of ~1e-6*r/(1-r) > 1e-5 at this grid size",
                      strict=True)] if (p, q) in C2_BEYOND_REACH else [],
                  id=f"p{p}-m{m}-q{q}")
     for p, m, q in C2_CASES])
def test_c2_reference_agreement(c2_runs, p, m, q):
    _, err = c2_runs[(p, m, q)]
    assert err < 1e-5, f"|x - x_ref| = {err:.3e}"


# -- criterion 3: qualitative table trends -----------------------------------

@criterion(3, "iteration trends versus the standard baseline")
def test_c3_table_trends(grid_problem, grid_multisplitting):
    prob = grid_problem(16)
    ms = grid_multisplitting(16, 2, "jacobi")
    outs = []
    inners = {}
    for q in (1, 2, 4, 8):
        cfg = SolverConfig(omega=1.0, schedule=InnerSchedule.fixed(q),
                           outer_tol=1e-6)
        _, rep = solve_sync(prob, ms, cfg)
        assert rep.converged
        outs.append(rep.outer_iterations)
        inners[q] = rep.total_inner_iterations
    assert all(a >= b for a, b in zip(outs, outs[1:])), outs

    smm_cfg = SolverConfig(omega=1.0,
                           schedule=InnerSchedule.inner_tolerance(1e-8),
                           outer_tol=1e-6)
    _, smm_rep = solve_sync(prob, ms, smm_cfg)
    assert smm_rep.converged
    assert inners[4] < smm_rep.total_inner_iterations
    return (f"out-iterations {outs} nonincreasing; fixed-count inner total "
            f"{inners[4]} < standard-baseline {smm_rep.total_inner_iterations}")


# -- criterion 4: per-step contraction bound ---------------------------------

@criterion(4, "relaxed per-step contraction bound")
def test_c4_contraction_bound(grid_problem, grid_reference,
                              grid_multisplitting):
    prob = grid_problem(8)
    x_star = grid_reference(8, tol=1e-13).x
    w = spsolve(prob.A.to_scipy().tocsc(), np.ones(prob.n))
    q = 2
    checked = 0
    for variant in ("jacobi", "block_lower_triangular"):
        ms = grid_multisplitting(8, 2, variant)
        ops = [ContractionOperator(s) for s in ms.splittings]
        acc = np.zeros(prob.n)
        for i, wv in enumerate(ms.weighting.weights):
            v = np.ones(prob.n)
            for _ in range(q):
                v = ops[i](v)
            acc += wv * v
        t_norm = float(np.max(acc))
        for omega in (0.5, 0.9, 1.0):
            bound = omega * t_norm + abs(1.0 - omega) + 1e-8
            ratios = []

            def observe(e):
                before = weighted_max_norm(e.starts[0] - x_star, w)
                after = weighted_max_norm(e.iterates[0] - x_star, w)
                if before > 1e-10:
                    ratios.append(after / before)

            cfg = SolverConfig(omega=omega, schedule=InnerSchedule.fixed(q),
                               outer_tol=1e-6)
            _, rep = solve_sync(prob, ms, cfg, on_step=observe)
            assert rep.converged
            assert ratios and max(ratios) <= bound, \
                f"{variant} omega={omega}: max ratio {max(ratios):.8f} " \
                f"exceeds bound {bound:.8f}"
            checked += len(ratios)
    return f"{checked} per-step ratios within bound"


# -- criterion 5: componentwise inner-error recursion ------------------------

@criterion(5, "componentwise inner-error recursion")
def test_c5_componentwise_recursion(grid_problem):
    prob = grid_problem(4)
    x_star = brute_force_lcp(prob)
    steps = 0
    for variant in ("jacobi", "block_lower_triangular"):
        for q in (1, 2):
            ms = build_block_splitting(prob.A, Partition.contiguous(16, 2),
                                       variant)
            ops = [ContractionOperator(s) for s in ms.splittings]
            failures = []

            def observe(e):
                k, xk, ys = e.k, e.starts[0], e.ys
                for i, y in enumerate(ys):
                    v = np.abs(xk - x_star)
                    for _ in range(q):
                        v = ops[i](v)
                    if not np.all(np.abs(y - x_star) <= v + 1e-10):
                        failures.append((k, i))

            cfg = SolverConfig(omega=1.0, schedule=InnerSchedule.fixed(q),
                               outer_tol=1e-8)
            _, rep = solve_sync(prob, ms, cfg, on_step=observe)
            assert rep.converged and not failures
            steps += rep.outer_iterations * ms.m
    return f"{steps} processor-steps dominated componentwise"


# -- criterion 6: asynchronous equivalence and convergence -------------------

@criterion(6, "asynchronous equivalence and convergence")
def test_c6_async(grid_problem, grid_multisplitting):
    prob = grid_problem(8)
    ms = grid_multisplitting(8, 2, "jacobi")
    cfg = SolverConfig(omega=1.0, schedule=InnerSchedule.fixed(2),
                       outer_tol=1e-6)

    # (a) the synchronous solve is the zero-delay case: every step k reads
    # step k and updates every stream
    events = []
    x_sync, rep_sync = solve_sync(prob, ms, cfg, on_step=events.append)
    assert len(events) == rep_sync.outer_iterations
    for e in events:
        assert e.reads == (e.k,) * ms.m
        assert e.updated == tuple(range(ms.m))

    # (b) bounded staleness with fair update policies reaches the same limit
    worst_b = 0.0
    for d in (1, 3, 7):
        for policy in (RoundRobin(2), RandomFair(seed=1)):
            sched = AsyncSchedule(staleness_bound=d, policy=policy)
            x, rep = solve_async_sim(prob, ms, cfg, sched)
            assert rep.converged
            worst_b = max(worst_b, float(np.max(np.abs(x - x_sync))))
    assert worst_b < 1e-5

    # (c) threaded runs agree across repetitions
    cfg4 = SolverConfig(omega=1.0, schedule=InnerSchedule.fixed(4),
                        outer_tol=1e-6)
    x_sync4, _ = solve_sync(prob, ms, cfg4)
    worst_c = 0.0
    for _ in range(10):
        x, rep = solve_async_threaded(prob, ms, cfg4, workers=2)
        assert rep.converged
        worst_c = max(worst_c, float(np.max(np.abs(x - x_sync4))))
    assert worst_c < 1e-5
    return (f"{len(events)} sync steps read step k and update all streams; "
            f"stale runs within {worst_b:.1e}; 10 threaded runs within "
            f"{worst_c:.1e}")


# -- criterion 7: inner-count threshold correctness --------------------------

@criterion(7, "inner-count threshold against dense powers")
def test_c7_inner_count_threshold():
    rng = np.random.default_rng(777)
    checked = 0
    for trial in range(50):
        n = int(rng.integers(2, 51))
        a = random_sparse_hplus(rng, n, density=0.3)
        m = int(min(rng.choice([1, 2, 4]), n))
        variant = "block_lower_triangular" if trial % 2 else "jacobi"
        ms = build_block_splitting(a, Partition.contiguous(n, m), variant)
        assert validate_multisplitting(a, ms).ok
        split = ms.splittings[trial % m]
        t = dense_contraction_matrix(split.M, split.N)
        for eta in (0.5, 0.1, 0.01):
            power = np.eye(n)
            expected = None
            for s in range(1, 400):
                power = power @ t
                if float(np.max(np.abs(power).sum(axis=1))) <= eta:
                    expected = s
                    break
            assert expected is not None
            got = min_inner_count(split, eta)
            assert got == expected, f"n={n} eta={eta}: {got} != {expected}"
            checked += 1
    return f"{checked} thresholds matched exactly"


# -- criterion 8: classification certificates --------------------------------

@criterion(8, "classification certificates")
def test_c8_classification_certificates(grid_problem):
    for p in (4, 8, 16):
        a = grid_problem(p).A
        cls = classify(a)
        assert cls.is_h_plus
        u = cls.witness_u
        assert u is not None and np.all(u > 0.0)
        j = dense_jacobi_matrix(a)
        assert np.all(j @ u < u)

    cls = classify(SparseMatrix.from_dense([[1.0, -2.0], [-2.0, 1.0]]))
    assert not cls.is_h_matrix
    assert cls.witness_u is None
    return "grid certificates strict for p in {4,8,16}; non-H case rejected"
