"""Asynchronous solvers: determinism, staleness traces, threaded agreement."""

import sys

import numpy as np
import pytest

from mslcp import (AllEveryStep, AsyncSchedule, InnerSchedule, LcpProblem,
                   Partition, RandomFair, RoundRobin, SolverConfig,
                   SparseMatrix, build_block_splitting, reference_solve,
                   solve_async_sim, solve_async_threaded, solve_sync,
                   weighted_max_norm)
from mslcp.hmatrix import solve_m_matrix
from mslcp.splitting import ContractionOperator, Splitting, MultisplittingSet, \
    WeightingScheme


def cfg_fixed(q, tol=1e-6, **kw):
    return SolverConfig(omega=1.0, schedule=InnerSchedule.fixed(q),
                        outer_tol=tol, **kw)


class TestSimulatorEquivalence:
    def test_zero_staleness_matches_sync_bitwise(self, grid_problem,
                                                 grid_multisplitting):
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 2, "jacobi")
        cfg = cfg_fixed(2)
        sync_iterates = []
        x_s, rep_s = solve_sync(prob, ms, cfg,
                                on_step=lambda e:
                                sync_iterates.append(e.iterates[0].copy()))
        async_iterates = []
        sched = AsyncSchedule(staleness_bound=0, policy=AllEveryStep())
        x_a, rep_a = solve_async_sim(prob, ms, cfg, sched,
                                     on_step=lambda e:
                                     async_iterates.append(e.iterates[0].copy()))
        assert rep_s.outer_iterations == rep_a.outer_iterations
        assert len(sync_iterates) == len(async_iterates)
        for xs, xa in zip(sync_iterates, async_iterates):
            assert np.array_equal(xs, xa)
        assert np.array_equal(x_s, x_a)

    def test_nonpositive_forcing(self):
        a = SparseMatrix.from_dense([[2.0]])
        prob = LcpProblem(a, [-2.0])
        ms = build_block_splitting(a, Partition.contiguous(1, 1), "jacobi")
        sched = AsyncSchedule(staleness_bound=2, policy=RoundRobin(1))
        x, rep = solve_async_sim(prob, ms, cfg_fixed(1, tol=1e-12), sched)
        assert rep.converged
        assert np.array_equal(x, [0.0])

    def test_stale_roundrobin_matches_sync_solution(self, grid_problem,
                                                    grid_multisplitting):
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 2, "jacobi")
        x_sync, _ = solve_sync(prob, ms, cfg_fixed(2))
        sched = AsyncSchedule(staleness_bound=3, policy=RoundRobin(2))
        x_async, rep = solve_async_sim(prob, ms, cfg_fixed(2), sched)
        assert rep.converged
        assert np.max(np.abs(x_async - x_sync)) < 1e-6

    def test_agreement_across_configs(self, grid_problem, grid_multisplitting):
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 2, "block_lower_triangular")
        tol = 1e-7
        x_sync, _ = solve_sync(prob, ms, cfg_fixed(2, tol=tol))
        for d, policy in [(1, RoundRobin(1)), (2, RandomFair(seed=9)),
                          (5, AllEveryStep())]:
            for reads in ("latest", "stalest", "uniform"):
                sched = AsyncSchedule(staleness_bound=d, policy=policy,
                                      reads=reads, reads_seed=3)
                x, rep = solve_async_sim(prob, ms, cfg_fixed(2, tol=tol), sched)
                assert rep.converged
                assert np.max(np.abs(x - x_sync)) < 10 * tol


class TestScheduleProperties:
    def test_staleness_containment(self, grid_problem, grid_multisplitting):
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 2, "jacobi")
        d = 3
        sched = AsyncSchedule(staleness_bound=d, policy=RandomFair(seed=5),
                              reads="uniform", reads_seed=11)
        cfg = cfg_fixed(1)
        steps = []
        solve_async_sim(prob, ms, cfg, sched,
                        on_step=lambda e: steps.append(e.reads))
        for k, reads in enumerate(steps):
            for r in reads:
                assert max(0, k - d) <= r <= k

    def test_fairness_every_processor_updates(self, grid_problem,
                                               grid_multisplitting):
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 3, "jacobi")
        for policy in (AllEveryStep(), RoundRobin(2), RandomFair(seed=2)):
            sched = AsyncSchedule(staleness_bound=2, policy=policy)
            cfg = cfg_fixed(1)
            sets = []
            solve_async_sim(prob, ms, cfg, sched,
                            on_step=lambda e: sets.append(e.updated))
            window = policy.fairness_window(3)
            for start in range(0, len(sets) - window + 1):
                seen = set()
                for s in sets[start:start + window]:
                    seen.update(s)
                assert seen == {0, 1, 2}

    @pytest.mark.parametrize("policy", [RoundRobin(2), RandomFair(seed=3)],
                             ids=["roundrobin", "randomfair"])
    def test_updates_blend_and_the_rest_carry_forward(self, grid_problem,
                                                      grid_multisplitting,
                                                      policy):
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 3, "block_lower_triangular")
        omega = 0.8
        sched = AsyncSchedule(staleness_bound=3, policy=policy,
                              reads="uniform", reads_seed=4)
        cfg = SolverConfig(omega=omega, schedule=InnerSchedule.fixed(2),
                           outer_tol=1e-8)
        events = []
        solve_async_sim(prob, ms, cfg, sched, on_step=events.append)
        assert len(events) > 20
        prev = events[0].starts  # every stream starts at x0 and reads step 0
        for e in events:
            acc = np.empty(prob.n)
            for i, idx in enumerate(ms.partition.owner_sets):
                acc[idx] = e.ys[i][idx]
            for l in range(ms.m):
                if l in e.updated:
                    want = omega * acc + (1.0 - omega) * prev[l]
                    assert e.iterates[l].tobytes() == want.tobytes()
                else:
                    assert e.iterates[l] is prev[l]
            prev = e.iterates

    def test_simulator_determinism(self, grid_problem, grid_multisplitting):
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 2, "jacobi")
        sched = AsyncSchedule(staleness_bound=4, policy=RandomFair(seed=77),
                              reads="uniform", reads_seed=77)
        cfg = cfg_fixed(2)
        e1, e2 = [], []
        x1, r1 = solve_async_sim(prob, ms, cfg, sched, on_step=e1.append)
        x2, r2 = solve_async_sim(prob, ms, cfg, sched, on_step=e2.append)
        assert np.array_equal(x1, x2)
        assert [e.update_norm for e in e1] == [e.update_norm for e in e2]
        assert [e.reads for e in e1] == [e.reads for e in e2]
        assert [e.updated for e in e1] == [e.updated for e in e2]
        assert r1.outer_iterations == r2.outer_iterations


class TestEpochContraction:
    def test_weighted_error_bound_over_epochs(self, grid_problem,
                                              grid_multisplitting):
        # after each full fairness epoch (extended by the staleness bound),
        # the worst stream error in the weighted max norm contracts by at
        # least the validated per-update factor
        prob = grid_problem(3)
        ms = grid_multisplitting(3, 3, "jacobi")
        x_star = reference_solve(prob, tol=1e-13).x
        w = solve_m_matrix(prob.A, np.ones(prob.n))
        q = 2
        ops = [ContractionOperator(s) for s in ms.splittings]
        thetas = []
        for i in range(ms.m):
            v = w.copy()
            for _ in range(q):
                v = ops[i](v)
            thetas.append(float(np.max(v / w)))
        theta = max(thetas)
        assert theta < 1.0

        d = 2
        policy = RoundRobin(1)
        epoch = policy.fairness_window(ms.m) + d
        errors = []
        sched = AsyncSchedule(staleness_bound=d, policy=policy)
        cfg = cfg_fixed(q, tol=1e-10, max_outer=40 * epoch)
        solve_async_sim(prob, ms, cfg, sched,
                        on_step=lambda e: errors.append(
                            max(weighted_max_norm(s - x_star, w)
                                for s in e.iterates)))
        delta = weighted_max_norm(x_star, w)  # x0 = 0
        t = 0
        for k in range(epoch - 1, len(errors), epoch):
            t += 1
            assert errors[k] <= (theta ** t) * delta + 1e-6


class TestThreaded:
    def test_single_worker_matches_sync(self, grid_problem, grid_multisplitting):
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 1, "jacobi")
        cfg = cfg_fixed(2)
        x_sync, _ = solve_sync(prob, ms, cfg)
        x_thr, rep = solve_async_threaded(prob, ms, cfg, workers=1)
        assert rep.converged
        assert np.max(np.abs(x_thr - x_sync)) < 10 * cfg.outer_tol

    def test_two_workers_agree_with_sync(self, grid_problem, grid_multisplitting):
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 2, "jacobi")
        cfg = cfg_fixed(4)
        x_sync, _ = solve_sync(prob, ms, cfg)
        for _ in range(3):
            x_thr, rep = solve_async_threaded(prob, ms, cfg, workers=2)
            assert rep.converged
            assert np.max(np.abs(x_thr - x_sync)) < 1e-5

    def test_nonpositive_forcing_any_interleaving(self, grid_problem,
                                                  grid_multisplitting):
        a = grid_problem(3).A
        prob = LcpProblem(a, -np.ones(9))
        ms = grid_multisplitting(3, 3, "jacobi")
        x, rep = solve_async_threaded(prob, ms, cfg_fixed(1), workers=3)
        assert rep.converged
        assert np.max(np.abs(x)) < 1e-8

    def test_worker_count_must_match(self, grid_problem, grid_multisplitting):
        prob = grid_problem(3)
        ms = grid_multisplitting(3, 3, "jacobi")
        with pytest.raises(ValueError, match="workers"):
            solve_async_threaded(prob, ms, cfg_fixed(1), workers=2)

    def test_requires_indicator_weighting(self, grid_problem):
        prob = grid_problem(3)
        part = Partition.contiguous(9, 1)
        base = build_block_splitting(prob.A, part, "jacobi")
        smooth = WeightingScheme((np.full(9, 0.5), np.full(9, 0.5)))
        ms = MultisplittingSet(
            (base.splittings[0], base.splittings[0]), smooth,
            Partition(9, 2, (np.arange(0, 5), np.arange(5, 9))),
            (base.contraction_estimates[0],) * 2,
            matrix_class=base.matrix_class)
        with pytest.raises(ValueError, match="indicator"):
            solve_async_threaded(prob, ms, cfg_fixed(1), workers=2)

    def test_infeasible_schedule_raises_before_threads(self, grid_problem):
        prob = grid_problem(3)
        part = Partition.contiguous(9, 2)
        ms = build_block_splitting(prob.A, part, "jacobi")
        # inner budget that cannot meet the requested contraction
        bad = SolverConfig(omega=1.0,
                           schedule=InnerSchedule.adaptive(1e-12, max_count=2),
                           outer_tol=1e-6)
        with pytest.raises(Exception, match="contraction too weak"):
            solve_async_threaded(prob, ms, bad, workers=2)

    def test_worker_failure_surfaces_processor_index(self, grid_problem,
                                                     grid_multisplitting):
        prob = grid_problem(3)
        good = grid_multisplitting(3, 2, "jacobi")
        # processor 1 gets a factor with a negative diagonal entry, which the
        # subproblem solver rejects inside the worker thread
        broken_m = SparseMatrix.from_dense(np.diag([-1.0] + [4.0] * 8))
        broken = Splitting(broken_m, good.splittings[1].N, "diagonal")
        ms = MultisplittingSet(
            (good.splittings[0], broken), good.weighting, good.partition,
            good.contraction_estimates, matrix_class=good.matrix_class)
        with pytest.raises(RuntimeError, match="processor 1"):
            solve_async_threaded(prob, ms, cfg_fixed(1), workers=2)

    def test_timeout_reports_nonconvergence(self, grid_problem,
                                            grid_multisplitting):
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 2, "jacobi")
        cfg = SolverConfig(omega=1.0, schedule=InnerSchedule.fixed(1),
                           outer_tol=1e-15, max_outer=3)
        x, rep = solve_async_threaded(prob, ms, cfg, workers=2)
        assert not rep.converged
        # the publication budget max_outer * m is exact: no worker publishes
        # after the stop
        assert rep.outer_iterations == 6
        assert np.all(np.isfinite(x))

    def test_budget_exact_under_frequent_switches(self, grid_problem,
                                                  grid_multisplitting):
        # more workers than cores and a tiny switch interval: a lost
        # publication, or one landing after the stop, breaks the exact counts
        prob = grid_problem(8)
        ms = grid_multisplitting(8, 4, "jacobi")
        cfg = SolverConfig(omega=1.0, schedule=InnerSchedule.fixed(2),
                           outer_tol=1e-15, max_outer=5)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                _, rep = solve_async_threaded(prob, ms, cfg, workers=4)
                assert not rep.converged
                assert rep.outer_iterations == 20
                assert rep.total_inner_iterations == 40
        finally:
            sys.setswitchinterval(old)
