"""Asynchronous solvers: determinism, staleness traces, threaded agreement."""

import re
import sys

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from mslcp import (AllEveryStep, AsyncSchedule, ConvergenceError,
                   InnerSchedule, LcpProblem,
                   Partition, RandomFair, RoundRobin, SolverConfig,
                   SparseMatrix, build_block_splitting, reference_solve,
                   solve_async_sim, solve_async_threaded, solve_sync)
from mslcp.asynchronous import _cone
from mslcp.splitting import ContractionOperator, Splitting, MultisplittingSet, \
    WeightingScheme
from mslcp.sync import _run_processor_inner

from conftest import random_sparse_hplus, weighted_max_norm


def cfg_fixed(q, tol=1e-6, **kw):
    return SolverConfig(omega=1.0, schedule=InnerSchedule.fixed(q),
                        outer_tol=tol, **kw)


class TestSimulatorEquivalence:
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
            for i, idx in enumerate(ms.weighting.indicator_owners):
                acc[idx] = e.ys[i][idx]
            for l in range(ms.m):
                if l in e.updated:
                    want = omega * acc + (1.0 - omega) * prev[l]
                    assert e.iterates[l].tobytes() == want.tobytes()
                else:
                    assert e.iterates[l] is prev[l]
            prev = e.iterates

    def test_random_policy_rejects_m_above_its_limit_before_step_0(
            self, grid_problem, grid_multisplitting):
        prob = grid_problem(8)
        ms = grid_multisplitting(8, 64, "jacobi")
        sched = AsyncSchedule(staleness_bound=1, policy=RandomFair(seed=1))
        steps = []
        with pytest.raises(ValueError, match="at most 63 processors, got 64"):
            solve_async_sim(prob, ms, cfg_fixed(1), sched,
                            on_step=steps.append)
        assert steps == []

    @pytest.mark.parametrize("make", [
        lambda v: RandomFair(seed=v), lambda v: AsyncSchedule(reads_seed=v)],
        ids=["policy", "reads"])
    @pytest.mark.parametrize("value, message", [
        (-1, "seed must be nonnegative"),
        (2.0, "must be an integer, got 2.0"),
        (True, "must be an integer, got True"),
        (None, "must be an integer, got None")])
    def test_seeds_are_nonnegative_integers(self, make, value, message):
        # numpy rejects a negative seed only at its first draw, mid-solve
        with pytest.raises(ValueError, match=message):
            make(value)

    def test_seeds_are_stored_as_int(self):
        assert type(RandomFair(seed=np.int64(3)).seed) is int
        assert type(AsyncSchedule(reads_seed=np.uint8(4)).reads_seed) is int

    @pytest.mark.parametrize("m", [1, 4, 62, 63])
    def test_random_policy_draws_one_mask_below_two_to_the_m(self, m):
        policy = RandomFair(seed=6)
        assert policy.fairness_window(m) == 8
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        for k in range(1, 8):
            mask = int(ref.integers(1, 1 << m))
            assert policy.update_set(k, m, rng) == \
                [l for l in range(m) if (mask >> l) & 1]

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
        w = spsolve(prob.A.to_scipy().tocsc(), np.ones(prob.n))
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

    def test_block_lower_two_workers_agree_with_sync(self, grid_problem,
                                                     grid_multisplitting):
        # each worker's inner solves are projected forward sweeps, and the
        # workers build the stacked factors' sweep schedules concurrently
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 2, "block_lower_triangular")
        cfg = cfg_fixed(4)
        x_sync, _ = solve_sync(prob, ms, cfg)
        for _ in range(3):
            x_thr, rep = solve_async_threaded(prob, ms, cfg, workers=2)
            assert rep.converged
            assert np.max(np.abs(x_thr - x_sync)) < 1e-5

    def test_interleaved_blocks_agree_with_sync(self, grid_problem):
        # even and odd indices: no owner set is one range of indices
        prob = grid_problem(4)
        part = Partition(16, 2, (np.arange(0, 16, 2), np.arange(1, 16, 2)))
        ms = build_block_splitting(prob.A, part, "jacobi")
        cfg = cfg_fixed(4)
        x_sync, _ = solve_sync(prob, ms, cfg)
        for _ in range(3):
            x_thr, rep = solve_async_threaded(prob, ms, cfg, workers=2)
            assert rep.converged
            assert np.max(np.abs(x_thr - x_sync)) < 1e-5

    def test_underrelaxed_agrees_with_sync(self, grid_problem,
                                           grid_multisplitting):
        # at omega < 1 each publication blends a new block with the old one
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 2, "jacobi")
        cfg = SolverConfig(omega=0.8, schedule=InnerSchedule.fixed(4),
                           outer_tol=1e-6)
        x_sync, _ = solve_sync(prob, ms, cfg)
        for _ in range(3):
            x_thr, rep = solve_async_threaded(prob, ms, cfg, workers=2)
            assert rep.converged
            assert np.max(np.abs(x_thr - x_sync)) < 1e-5

    def test_fixed_count_inner_total(self, grid_problem, grid_multisplitting):
        # every publication ran exactly q inner solves
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 2, "jacobi")
        for _ in range(3):
            _, rep = solve_async_threaded(prob, ms, cfg_fixed(3), workers=2)
            assert rep.converged
            assert rep.total_inner_iterations == 3 * rep.outer_iterations

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
            matrix_class=base.matrix_class)
        with pytest.raises(ValueError, match="indicator"):
            solve_async_threaded(prob, ms, cfg_fixed(1), workers=2)

    def test_infeasible_schedule_raises_before_threads(self, grid_problem,
                                                       monkeypatch):
        import mslcp.splitting
        monkeypatch.setattr(mslcp.splitting, "MAX_INNER_COUNT", 2)
        prob = grid_problem(3)
        part = Partition.contiguous(9, 2)
        ms = build_block_splitting(prob.A, part, "jacobi")
        # inner budget that cannot meet the requested contraction
        bad = SolverConfig(omega=1.0,
                           schedule=InnerSchedule.adaptive(1e-12),
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
        broken = Splitting(broken_m, good.splittings[1].N)
        ms = MultisplittingSet(
            (good.splittings[0], broken), good.weighting,
            matrix_class=good.matrix_class)
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


def reference_cone(split, block, count):
    """The rows of ``block``'s cone by dense boolean products: count - 1
    hops in N's graph, each closed under M's strictly-lower entries."""
    reads = split.N.to_dense() != 0.0
    lower = np.tril(split.M.to_dense() != 0.0, -1)
    inside = np.zeros(split.n, dtype=bool)
    inside[block] = True
    for hop in range(count):
        if hop:
            inside |= reads[inside].any(axis=0)
        while True:
            grown = inside | lower[inside].any(axis=0)
            if np.array_equal(grown, inside):
                break
            inside = grown
    return np.flatnonzero(inside)


def cone_rows(cone, n):
    """The cone's rows in the full vector, from its gather and rows."""
    return np.arange(n)[cone.gather][cone.rows]


def assert_cones_bit_equal(prob, ms, count, seed=0):
    """Each worker's cone is the reference cone, and its restricted loop
    gives the full loop's block rows byte for byte; returns the cones,
    None where the cone is every row."""
    x = np.random.default_rng(seed).standard_normal(prob.n)
    cones = []
    for split, block in zip(ms.splittings, ms.weighting.indicator_owners):
        cone = _cone(split, block, count, prob.f)
        want = reference_cone(split, block, count)
        cones.append(cone)
        if cone is None:
            assert len(want) == prob.n
            continue
        assert np.array_equal(cone_rows(cone, prob.n), want)
        full, done = _run_processor_inner(prob, split, prob.f, x, count, None)
        part, done_part = _run_processor_inner(
            prob, cone, cone.f, x[cone.gather].copy(), count, None, cone.rows)
        assert done == done_part == count
        assert part[cone.block].tobytes() == full[block].tobytes()
    return cones


class TestCone:
    """Each threaded worker solves only the rows its block depends on
    (``asynchronous._cone``), with its block's bits."""

    @pytest.mark.parametrize("q", [1, 2, 4])
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("p", [4, 8, 16])
    @pytest.mark.parametrize("variant", ["jacobi", "block_lower_triangular"])
    def test_contiguous_grid_blocks_bit_equal(self, grid_problem,
                                              grid_multisplitting, variant,
                                              p, m, q):
        prob = grid_problem(p)
        ms = grid_multisplitting(p, m, variant)
        cones = assert_cones_bit_equal(prob, ms, q)
        if q == 1:
            # no hop: a built-in factor's cone is its block
            assert [cone.M.n_rows for cone in cones] == \
                [len(block) for block in ms.weighting.indicator_owners]
        if p == 16 and m == 4:
            # an interior block's cone stays a proper subset at q = 4
            assert all(cone is not None for cone in cones)

    @pytest.mark.parametrize("variant", ["jacobi", "block_lower_triangular"])
    def test_interleaved_blocks(self, grid_problem, variant):
        # one hop from the even rows of the grid reaches every odd row, so
        # at q = 2 each cone is every row and the worker keeps the full
        # loop; at q = 1 the cone is the block, written back through index
        # arrays
        prob = grid_problem(4)
        part = Partition(16, 2, (np.arange(0, 16, 2), np.arange(1, 16, 2)))
        ms = build_block_splitting(prob.A, part, variant)
        assert assert_cones_bit_equal(prob, ms, 2) == [None, None]
        cones = assert_cones_bit_equal(prob, ms, 1)
        assert all(isinstance(cone.rows, np.ndarray) for cone in cones)

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_lower_entries_across_blocks_close_the_cone(self, seed, q):
        # M = the lower triangle of A: its strict-lower entries reach into
        # earlier blocks, so even at q = 1 the last block's cone holds rows
        # of the blocks before it
        rng = np.random.default_rng(seed)
        a = random_sparse_hplus(rng, 24, density=0.1)
        prob = LcpProblem(a, rng.standard_normal(24))
        lower = a.same_pattern(np.where(a.col_indices <= a.entry_rows(),
                                        a.values, 0.0))
        split = Splitting(lower, SparseMatrix.from_scipy(
            lower.to_scipy() - a.to_scipy()))
        assert split.structure == "lower_triangular"
        weighting = WeightingScheme.indicator(Partition.contiguous(24, 3))
        ms = MultisplittingSet((split,) * 3, weighting)
        cones = assert_cones_bit_equal(prob, ms, q, seed)
        last = weighting.indicator_owners[2]
        if cones[2] is not None:
            assert cones[2].M.n_rows > len(last)
        assert len(reference_cone(split, last, q)) > len(last)

    def loops(self, monkeypatch):
        """Record the ``rows`` argument of every worker's inner loop."""
        import mslcp.asynchronous
        calls = []
        loop = mslcp.asynchronous._run_processor_inner

        def recorded(*args):
            calls.append(args[6] if len(args) > 6 else None)
            return loop(*args)

        monkeypatch.setattr(mslcp.asynchronous, "_run_processor_inner",
                            recorded)
        return calls

    def test_fixed_jacobi_workers_restrict(self, grid_problem,
                                           grid_multisplitting, monkeypatch):
        calls = self.loops(monkeypatch)
        prob = grid_problem(8)
        _, rep = solve_async_threaded(prob, grid_multisplitting(8, 4),
                                      cfg_fixed(2), workers=4)
        assert rep.converged
        assert calls and all(rows is not None for rows in calls)

    def test_inner_tolerance_keeps_the_full_loop(self, grid_problem,
                                                 grid_multisplitting,
                                                 monkeypatch):
        calls = self.loops(monkeypatch)
        cfg = SolverConfig(omega=1.0,
                           schedule=InnerSchedule.inner_tolerance(1e-6),
                           outer_tol=1e-6)
        _, rep = solve_async_threaded(grid_problem(8),
                                      grid_multisplitting(8, 4), cfg,
                                      workers=4)
        assert rep.converged
        assert calls and all(rows is None for rows in calls)

    def test_general_factor_keeps_the_full_loop(self, grid_problem,
                                                monkeypatch):
        # M_i keeps every entry of A inside block i, upper ones included, so
        # each sub-solve is projected Gauss-Seidel over all rows
        calls = self.loops(monkeypatch)
        prob = grid_problem(4)
        a = prob.A
        part = Partition.contiguous(16, 2)
        splits = []
        for block in part.owner_sets:
            member = np.isin(np.arange(16), block)
            keep = (a.entry_rows() == a.col_indices) | \
                (member[a.entry_rows()] & member[a.col_indices])
            m_fac = a.same_pattern(np.where(keep, a.values, 0.0))
            splits.append(Splitting(m_fac, SparseMatrix.from_scipy(
                m_fac.to_scipy() - a.to_scipy())))
        assert {s.structure for s in splits} == {"general"}
        ms = MultisplittingSet(tuple(splits), WeightingScheme.indicator(part))
        _, rep = solve_async_threaded(prob, ms, cfg_fixed(1), workers=2)
        assert rep.converged
        assert calls and all(rows is None for rows in calls)


def overflowing_set(prob):
    """Processor 0's factor is M = 5e-324 I with N = M - A, so its first
    solve's F / M overflows to +inf; processor 1 uses the Jacobi splitting."""
    base = build_block_splitting(prob.A, Partition.contiguous(prob.n, 2),
                                 "jacobi")
    tiny = SparseMatrix.from_dense(np.diag(np.full(prob.n, 5e-324)))
    bad = Splitting(tiny, SparseMatrix.from_scipy(tiny.to_scipy()
                                                  - prob.A.to_scipy()))
    return MultisplittingSet((bad, base.splittings[1]), base.weighting,
                             base.matrix_class)


def overflowing_sweep_set(prob, bad):
    """Block-lower multisplitting on two blocks, except that processor
    ``bad``'s factor has a diagonal of 5e-324 (N = M - A), so its first
    forward sweep divides a positive f_j by it and overflows to +inf."""
    base = build_block_splitting(prob.A, Partition.contiguous(prob.n, 2),
                                 "block_lower_triangular")
    m = base.splittings[bad].M
    tiny = m.same_pattern(np.where(m.entry_rows() == m.col_indices, 5e-324,
                                   m.values))
    odd = Splitting(tiny, SparseMatrix.from_scipy(tiny.to_scipy()
                                                  - prob.A.to_scipy()))
    assert odd.structure == "lower_triangular"
    splits = tuple(odd if i == bad else s
                   for i, s in enumerate(base.splittings))
    return MultisplittingSet(splits, base.weighting, base.matrix_class)


class TestDivergence:
    """A diverging solve is reported by its error alone: numpy's overflow
    and invalid warnings stay off, also in the threaded workers, where no
    caller's ``np.errstate`` reaches."""

    # processor 1's publications may land first
    PUBLISHER = (r"async worker for processor 0 failed: iteration diverged "
                 r"at publication \d+: update norm inf")

    def test_threaded_divergence_names_the_publisher(self, grid_problem):
        # the block holding +inf never lands, so no reader fails on it
        prob = grid_problem(4)
        ms = overflowing_set(prob)
        for _ in range(20):
            with pytest.raises(RuntimeError) as got:
                solve_async_threaded(prob, ms, cfg_fixed(1), workers=2,
                                     x0=np.ones(prob.n))
            assert re.fullmatch(self.PUBLISHER, str(got.value))

    @pytest.mark.parametrize("mode, q, message", [
        ("sync", 1, "iteration diverged at outer step 0: update norm inf"),
        ("sync", 2, "subproblem solve failed at outer step 0, processor 0: "
                    "iteration diverged in inner solve 2: x contains "
                    "non-finite entries"),
        ("async-sim", 1, "iteration diverged at outer step 0: update norm "
                         "inf"),
        ("threaded", 1, PUBLISHER),
        ("threaded", 2, "async worker for processor 0 failed: iteration "
                        "diverged in inner solve 2: x contains non-finite "
                        "entries"),
    ], ids=["sync-q1", "sync-q2", "async-sim", "threaded-q1", "threaded-q2"])
    def test_divergence_raises_no_runtime_warning(self, grid_problem, mode,
                                                  q, message):
        # each message is a regular expression
        import warnings
        prob = grid_problem(4)
        ms = overflowing_set(prob)
        cfg, x0 = cfg_fixed(q), np.ones(prob.n)
        run = {
            "sync": lambda: solve_sync(prob, ms, cfg, x0=x0),
            "async-sim": lambda: solve_async_sim(
                prob, ms, cfg, AsyncSchedule(staleness_bound=2,
                                             policy=RoundRobin()), x0=x0),
            "threaded": lambda: solve_async_threaded(prob, ms, cfg, 2, x0),
        }[mode]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises((ConvergenceError, RuntimeError)) as got:
                run()
        assert re.fullmatch(message, str(got.value))
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("row, owner", [(0, 0), (15, 1)])
    def test_overflow_outside_a_cone_is_reported_by_its_owner(
            self, grid_problem, grid_multisplitting, row, owner):
        # both workers share a Jacobi splitting whose M has 5e-324 at
        # ``row``, so the first solve's f_row / M_row,row overflows there.
        # At q = 2 worker 0's cone is rows 0 to 11 and worker 1's rows 4 to
        # 15, so only the row's owner computes it and reports it, every
        # time, also when the other worker's loop would have failed first
        import warnings
        prob = LcpProblem(grid_problem(4).A, np.ones(16))
        base = grid_multisplitting(4, 2)
        m = base.splittings[0].M
        tiny = m.same_pattern(np.where(np.arange(16) == row, 5e-324,
                                       m.values))
        split = Splitting(tiny, SparseMatrix.from_scipy(
            tiny.to_scipy() - prob.A.to_scipy()))
        ms = MultisplittingSet((split, split), base.weighting,
                               base.matrix_class)
        other = ms.weighting.indicator_owners[1 - owner]
        assert row not in cone_rows(_cone(split, other, 2, prob.f), 16)
        for _ in range(20):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(RuntimeError) as got:
                    solve_async_threaded(prob, ms, cfg_fixed(2), workers=2)
            assert str(got.value) == (
                f"async worker for processor {owner} failed: iteration "
                f"diverged in inner solve 2: x contains non-finite entries")
            assert [str(w.message) for w in caught
                    if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("bad", [0, 1])
    @pytest.mark.parametrize("mode", ["sync", "async-sim"])
    def test_forward_sweep_divergence_names_the_second_solve(
            self, grid_problem, mode, bad):
        # the first sweep's divide overflows; the stacked group's second
        # solve rejects that y, and no overflow or invalid warning from the
        # sweep's divide or projection gets out
        import warnings
        prob = LcpProblem(grid_problem(4).A, np.ones(16))
        ms = overflowing_sweep_set(prob, bad)
        cfg = cfg_fixed(2)
        sched = AsyncSchedule() if mode == "sync" else AsyncSchedule(
            staleness_bound=2, policy=RoundRobin())
        run = solve_sync if mode == "sync" else (
            lambda *args: solve_async_sim(*args[:3], sched))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConvergenceError) as got:
                run(prob, ms, cfg)
        assert str(got.value) == (
            f"subproblem solve failed at outer step 0, processor {bad}: "
            f"iteration diverged in inner solve 2: x contains non-finite "
            f"entries")
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == []
