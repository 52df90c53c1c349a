"""Synchronous solver: fixed points, schedules, contraction invariants."""

import numpy as np
import pytest

from mslcp import (AsyncSchedule, InnerSchedule, LcpProblem, Partition,
                   SolverConfig, SparseMatrix, brute_force_lcp,
                   build_block_splitting, natural_residual, reference_solve,
                   schedule_inner_count, solve_async_sim, solve_sync, spmv,
                   weighted_max_norm)
from mslcp.hmatrix import solve_m_matrix
from mslcp.splitting import ContractionOperator

from conftest import random_sparse_hplus


def fixed_cfg(q, tol=1e-6, **kw):
    return SolverConfig(omega=1.0, schedule=InnerSchedule.fixed(q),
                        outer_tol=tol, **kw)


class TestBasicSolves:
    def test_scalar_problem_one_step(self):
        a = SparseMatrix.from_dense([[2.0]])
        prob = LcpProblem(a, [2.0])
        ms = build_block_splitting(a, Partition.contiguous(1, 1), "jacobi")
        history = []
        x, rep = solve_sync(prob, ms, fixed_cfg(1, tol=1e-12),
                            on_step=lambda e: history.append(e.iterates[0].copy()))
        # the splitting has N = 0, so the first subproblem solve is exact
        assert np.array_equal(history[0], [1.0])
        assert np.array_equal(x, [1.0])
        assert rep.converged

    def test_nonpositive_forcing_gives_zero(self):
        a = SparseMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        prob = LcpProblem(a, [-1.0, -1.0])
        for variant in ("jacobi", "block_lower_triangular"):
            for omega in (0.5, 1.0):
                ms = build_block_splitting(a, Partition.contiguous(2, 2), variant)
                cfg = SolverConfig(omega=omega, schedule=InnerSchedule.fixed(2),
                                   outer_tol=1e-10)
                x, rep = solve_sync(prob, ms, cfg)
                assert rep.converged
                assert np.max(np.abs(x)) < 1e-9

    def test_grid_matches_reference(self, grid_problem, grid_multisplitting):
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 2, "jacobi")
        x, rep = solve_sync(prob, ms, fixed_cfg(2))
        ref = reference_solve(prob, tol=1e-12)
        assert rep.converged
        assert rep.final_residual < 1e-6
        assert np.max(np.abs(x - ref.x)) < 1e-6

    def test_matches_brute_force_small(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            a = random_sparse_hplus(rng, n)
            prob = LcpProblem(a, rng.standard_normal(n) * 2.0)
            m = min(2, n)
            ms = build_block_splitting(a, Partition.contiguous(n, m), "jacobi")
            x, rep = solve_sync(prob, ms, fixed_cfg(2, tol=1e-12))
            assert rep.converged
            assert np.max(np.abs(x - brute_force_lcp(prob))) < 1e-9


class TestSchedules:
    def test_fixed_count(self, grid_multisplitting):
        ms = grid_multisplitting(4, 2, "jacobi")
        assert schedule_inner_count(InnerSchedule.fixed(3), 0, ms) == 3

    def test_adaptive_count_cached(self):
        m = SparseMatrix.from_dense([[2.0, 0.0], [0.0, 2.0]])
        a = SparseMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        ms = build_block_splitting(a, Partition.contiguous(2, 1), "jacobi")
        sched = InnerSchedule.adaptive(0.1)
        # ||T^s||_inf = 0.5^s: smallest s at or under 0.1 is 4
        assert schedule_inner_count(sched, 0, ms) == 4
        assert ms._caches["adaptive_counts"]  # resolved once, reused
        assert schedule_inner_count(sched, 0, ms) == 4

    def test_adaptive_infeasible_raises(self):
        a = SparseMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        ms = build_block_splitting(a, Partition.contiguous(2, 1), "jacobi")
        sched = InnerSchedule.adaptive(1e-9, max_count=3)
        prob = LcpProblem(a, [1.0, 1.0])
        with pytest.raises(Exception, match="contraction too weak"):
            solve_sync(prob, ms, SolverConfig(schedule=sched))

    def test_inner_tolerance_runs_until_gap_small(self, grid_problem,
                                                  grid_multisplitting):
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 2, "jacobi")
        theta = 1e-8
        cfg = SolverConfig(omega=1.0,
                           schedule=InnerSchedule.inner_tolerance(theta),
                           outer_tol=1e-6)
        counts = []
        x, rep = solve_sync(prob, ms, cfg,
                            on_step=lambda e: counts.append(e.inner_counts))
        assert rep.converged
        # replay the first outer step: the recorded count must equal the
        # first inner index whose iterate has complementarity gap below theta
        split = ms.splittings[0]
        diag = split.M.diagonal()
        y = np.zeros(prob.n)
        count = 0
        while True:
            y = np.maximum(0.0, (prob.f + spmv(split.N, y)) / diag)
            count += 1
            gap = abs(float(y @ (spmv(prob.A, y) - prob.f)))
            if gap < theta:
                break
        assert counts[0][0] == count

    def test_min_count_floor(self, grid_problem, grid_multisplitting):
        prob = grid_problem(2)
        ms = grid_multisplitting(2, 1, "jacobi")
        sched = InnerSchedule.inner_tolerance(1e3, min_count=3)
        cfg = SolverConfig(schedule=sched, outer_tol=1e-8)
        counts = []
        solve_sync(prob, ms, cfg,
                   on_step=lambda e: counts.append(e.inner_counts))
        assert all(c[0] == 3 for c in counts)


def _bitwise_match_for_ten_steps(prob, ms, omega, q, d):
    """Ten outer steps against relaxed block projected Jacobi where step k
    reads x_max(0, k-d) and blends against x_k."""
    seen = []

    def hook(e):
        seen.append(e.iterates[0].copy())

    cfg = SolverConfig(omega=omega, schedule=InnerSchedule.fixed(q),
                       outer_tol=0.0 + 1e-300, max_outer=10)
    if d == 0:
        solve_sync(prob, ms, cfg, on_step=hook)
    else:
        solve_async_sim(prob, ms, cfg, AsyncSchedule(staleness_bound=d),
                        on_step=hook)
    assert len(seen) == 10
    diag = prob.A.diagonal()
    xs = [np.zeros(prob.n)]
    for step in range(10):
        # processor i runs q projected Jacobi sweeps from the read iterate
        # and contributes its own block
        acc = np.empty(prob.n)
        for i, idx in enumerate(ms.partition.owner_sets):
            y = xs[max(0, step - d)]
            for _ in range(q):
                y = np.maximum(
                    0.0, (prob.f + spmv(ms.splittings[i].N, y)) / diag)
            acc[idx] = y[idx]
        x = xs[step]
        xs.append(acc if omega == 1.0 else omega * acc + (1.0 - omega) * x)
        assert seen[step].tobytes() == xs[-1].tobytes()


class TestReducesToProjectedJacobi:
    @pytest.mark.parametrize("q", [1, 3])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("omega", [1.0, 0.8, 1.2])
    def test_bitwise_match_for_ten_steps(self, grid_problem, grid_multisplitting,
                                         omega, m, q):
        _bitwise_match_for_ten_steps(grid_problem(4),
                                     grid_multisplitting(4, m, "jacobi"),
                                     omega, q, d=0)

    @pytest.mark.parametrize("q", [1, 3])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("omega", [1.0, 0.8, 1.2])
    def test_bitwise_match_at_staleness_two(self, grid_problem,
                                            grid_multisplitting, omega, m, q):
        _bitwise_match_for_ten_steps(grid_problem(4),
                                     grid_multisplitting(4, m, "jacobi"),
                                     omega, q, d=2)


class TestErrorRecursion:
    def test_componentwise_bound_every_step(self):
        # each processor's final inner iterate is componentwise dominated by
        # the contraction power applied to the incoming error
        rng = np.random.default_rng(61)
        for variant in ("jacobi", "block_lower_triangular"):
            n = 8
            a = random_sparse_hplus(rng, n, z_pattern=True)
            prob = LcpProblem(a, rng.standard_normal(n) * 2.0)
            x_star = brute_force_lcp(prob)
            ms = build_block_splitting(a, Partition.contiguous(n, 2), variant)
            ops = [ContractionOperator(s) for s in ms.splittings]
            q = 2

            def check(e):
                xk, ys = e.starts[0], e.ys
                bound = None
                for i, y in enumerate(ys):
                    v = np.abs(xk - x_star)
                    for _ in range(q):
                        v = ops[i](v)
                    assert np.all(np.abs(y - x_star) <= v + 1e-10)

            cfg = SolverConfig(omega=1.0, schedule=InnerSchedule.fixed(q),
                               outer_tol=1e-10)
            solve_sync(prob, ms, cfg, on_step=check)


class TestContractionBound:
    def test_weighted_error_ratio_bounded(self, grid_problem, grid_multisplitting):
        # per-step bound: new weighted error <= (omega ||T_k||_inf + |1-omega|)
        # * old weighted error, with T_k assembled from the splitting operators
        prob = grid_problem(4)
        ref = reference_solve(prob, tol=1e-14)
        x_star = ref.x
        w = solve_m_matrix(prob.A, np.ones(prob.n))
        for variant in ("jacobi", "block_lower_triangular"):
            ms = grid_multisplitting(4, 2, variant)
            q = 2
            ops = [ContractionOperator(s) for s in ms.splittings]
            powers = []
            for i in range(ms.m):
                v = np.ones(prob.n)
                for _ in range(q):
                    v = ops[i](v)
                powers.append(v)
            t_norm = 0.0
            acc = np.zeros(prob.n)
            for i, wv in enumerate(ms.weighting.weights):
                acc += wv * powers[i]
            t_norm = float(np.max(acc))
            for omega in (0.5, 1.0):
                bound = omega * t_norm + abs(1.0 - omega)
                errors = []
                cfg = SolverConfig(omega=omega, schedule=InnerSchedule.fixed(q),
                                   outer_tol=1e-5)
                solve_sync(prob, ms, cfg,
                           on_step=lambda e: errors.append(
                               (weighted_max_norm(e.starts[0] - x_star, w),
                                weighted_max_norm(e.iterates[0] - x_star, w))))
                for before, after in errors:
                    if before > 1e-9:
                        assert after <= bound * before + 1e-8


class TestTrend:
    def test_out_iterations_nonincreasing_in_q(self, grid_problem,
                                               grid_multisplitting):
        prob = grid_problem(8)
        ms = grid_multisplitting(8, 2, "jacobi")
        outs = []
        for q in (1, 2, 4, 8):
            _, rep = solve_sync(prob, ms, fixed_cfg(q))
            assert rep.converged
            outs.append(rep.outer_iterations)
        assert all(a >= b for a, b in zip(outs, outs[1:]))


class TestReport:
    def test_omega_bound_and_flag(self, grid_problem, grid_multisplitting):
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 2, "jacobi")
        gamma = np.cos(np.pi / 5)
        x, rep = solve_sync(prob, ms, fixed_cfg(2))
        assert rep.omega_in_range
        assert rep.omega_bound == pytest.approx(2.0 / (1.0 + gamma), abs=1e-6)
        cfg = SolverConfig(omega=1.9, schedule=InnerSchedule.fixed(2),
                           outer_tol=1e-6, max_outer=50)
        x2, rep2 = solve_sync(prob, ms, cfg)
        assert not rep2.omega_in_range  # outside the proven range, still ran
        assert rep2.outer_iterations > 0

    def test_history_lengths(self, grid_problem, grid_multisplitting):
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 2, "jacobi")
        norms, residuals, counts = [], [], []

        def record(e):
            norms.append(e.update_norm)
            residuals.append(natural_residual(prob, e.iterates[0]))
            counts.append(e.inner_counts)

        _, rep = solve_sync(prob, ms, fixed_cfg(2), on_step=record)
        assert len(norms) == rep.outer_iterations
        assert len(residuals) == rep.outer_iterations
        assert len(counts) == rep.outer_iterations
        assert rep.total_inner_iterations == sum(sum(c) for c in counts)

    def test_nonconvergence_returns_best_iterate(self, grid_problem,
                                                 grid_multisplitting):
        prob = grid_problem(8)
        ms = grid_multisplitting(8, 2, "jacobi")
        x, rep = solve_sync(prob, ms, fixed_cfg(1, tol=1e-14, max_outer=5))
        assert not rep.converged
        assert rep.outer_iterations == 5
        assert np.isfinite(rep.final_residual)
        assert natural_residual(prob, x) == pytest.approx(rep.final_residual)

    def test_subsolve_failure_carries_step_and_processor(self, grid_problem):
        from mslcp import ConvergenceError, MultisplittingSet, Splitting
        prob = grid_problem(3)
        base = build_block_splitting(prob.A, Partition.contiguous(9, 2),
                                     "jacobi")
        # processor 1 gets a genuinely iterative subproblem (M = A, N = 0)
        # with an impossible sweep budget
        whole = Splitting(prob.A, SparseMatrix.from_coo(9, 9, [], [], []),
                          "general")
        ms = MultisplittingSet(
            (base.splittings[0], whole), base.weighting, base.partition,
            base.contraction_estimates, matrix_class=base.matrix_class)
        cfg = SolverConfig(schedule=InnerSchedule.fixed(1), outer_tol=1e-6,
                           sub_iter_tol=1e-16, sub_max_iters=2)
        with pytest.raises(ConvergenceError, match="outer step 0, processor 1"):
            solve_sync(prob, ms, cfg)

    def test_divergence_names_step_processor_and_inner_solve(
            self, grid_problem, grid_multisplitting):
        from mslcp import ConvergenceError
        # omega = 1.2 lies beyond 2 / (1 + rho_J) on this grid; with one inner
        # solve per step the iterates grow until F = f + N y overflows
        prob = grid_problem(32)
        ms = grid_multisplitting(32, 4, "jacobi")
        cfg = SolverConfig(omega=1.2, schedule=InnerSchedule.fixed(1),
                           outer_tol=1e-6)
        with pytest.raises(ConvergenceError,
                           match=r"outer step \d+, processor \d: iteration "
                                 r"diverged in inner solve 1: .*non-finite"):
            solve_sync(prob, ms, cfg)

    def test_rejects_nonfinite_start(self, grid_problem, grid_multisplitting):
        prob = grid_problem(3)
        ms = grid_multisplitting(3, 2, "jacobi")
        with pytest.raises(ValueError, match="non-finite"):
            solve_sync(prob, ms, fixed_cfg(1), x0=np.full(9, np.nan))
