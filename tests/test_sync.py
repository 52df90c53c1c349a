"""Synchronous solver: fixed points, schedules, contraction invariants."""

from collections import Counter

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from mslcp import (AllEveryStep, AsyncSchedule, ConvergenceError, GridLcpSpec,
                   InnerSchedule, LcpProblem, MultisplittingSet, Partition,
                   RandomFair, RoundRobin, SolverConfig, SparseMatrix,
                   Splitting,
                   WeightingScheme, brute_force_lcp, build_block_splitting,
                   make_grid_lcp, natural_residual, reference_solve,
                   schedule_inner_count, solve_async_sim, solve_sub_lcp,
                   solve_sync, spmv)
from mslcp.asynchronous import READ_RULES
from mslcp.splitting import ContractionOperator

from conftest import random_sparse_hplus, weighted_max_norm


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

    def test_set_of_another_size_names_both_sizes(self, grid_problem,
                                                  grid_multisplitting):
        prob, ms = grid_problem(4), grid_multisplitting(3, 2)
        with pytest.raises(ValueError, match=r"^multisplitting size 9 does "
                                             r"not match the problem size "
                                             r"16$"):
            solve_sync(prob, ms, fixed_cfg(1))


class TestSchedules:
    def test_fixed_count(self, grid_multisplitting):
        ms = grid_multisplitting(4, 2, "jacobi")
        assert schedule_inner_count(InnerSchedule.fixed(3),
                                    ms.splittings[0]) == 3

    def test_adaptive_count_cached(self, monkeypatch):
        # the count is resolved once per solve and read by every step; the
        # set keeps nothing, so the next solve resolves it again
        import mslcp.sync
        a = SparseMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        ms = build_block_splitting(a, Partition.contiguous(2, 1), "jacobi")
        sched = InnerSchedule.adaptive(0.1)
        # ||T^s||_inf = 0.5^s: smallest s at or under 0.1 is 4
        assert schedule_inner_count(sched, ms.splittings[0]) == 4
        calls = []
        real = mslcp.sync.min_inner_count
        monkeypatch.setattr(mslcp.sync, "min_inner_count",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        prob = LcpProblem(a, [1.0, 1.0])
        cfg = SolverConfig(schedule=sched, outer_tol=1e-12)
        for solves in (1, 2):
            counts = []
            _, rep = solve_sync(prob, ms, cfg,
                                on_step=lambda e: counts.append(e.inner_counts))
            assert rep.outer_iterations > 1
            assert set(counts) == {(4,)}
            assert len(calls) == solves
        assert not hasattr(ms, "_caches")

    @pytest.mark.parametrize("variant, calls", [
        ("jacobi", 1), ("block_lower_triangular", 4)])
    def test_adaptive_count_once_per_splitting_object(self, monkeypatch,
                                                      grid_problem, variant,
                                                      calls):
        # the Jacobi processors share one splitting object, so one operator
        # and one count serve all four; block-lower has four splittings
        import mslcp.sync
        seen = []
        real = mslcp.sync.min_inner_count

        def counting(splitting, *args, **kwargs):
            seen.append(splitting)
            return real(splitting, *args, **kwargs)

        monkeypatch.setattr(mslcp.sync, "min_inner_count", counting)
        prob = grid_problem(6)
        ms = build_block_splitting(prob.A, Partition.contiguous(prob.n, 4),
                                   variant)
        cfg = SolverConfig(schedule=InnerSchedule.adaptive(0.2), max_outer=3)
        solve_sync(prob, ms, cfg)
        assert len(seen) == calls
        assert len({id(s) for s in seen}) == calls
        assert len({id(s.contraction_operator) for s in ms.splittings}) == calls

    @pytest.mark.parametrize("make", [lambda k: InnerSchedule.fixed(k)],
                             ids=["fixed-q"])
    def test_numpy_int_count_runs_as_its_int(self, grid_problem,
                                             grid_multisplitting, make):
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 2, "jacobi")
        runs = []
        for k in (np.int64(6), 6):
            sched = make(k)
            assert type(sched.q) is int
            runs.append(solve_sync(prob, ms, SolverConfig(schedule=sched)))
        (x, rep), (x_int, rep_int) = runs
        assert x.tobytes() == x_int.tobytes()
        assert _report_fields(rep) == _report_fields(rep_int)
        assert rep.total_inner_iterations == 6 * 2 * rep.outer_iterations

    @pytest.mark.parametrize("value", [4.0, True])
    def test_float_and_bool_counts_rejected(self, value):
        with pytest.raises(ValueError, match=f"q must be an integer, got "
                                             f"{value!r}"):
            InnerSchedule.fixed(value)

    @pytest.mark.parametrize("kind", ["fixed", "adaptive"])
    def test_theta_only_for_inner_tolerance(self, kind):
        with pytest.raises(ValueError, match="theta applies only"):
            InnerSchedule(kind, q=2, eta=0.5, theta=1e-6)

    def test_inner_tolerance_count_is_the_cap(self, grid_multisplitting):
        ms = grid_multisplitting(4, 2, "jacobi")
        sched = InnerSchedule.inner_tolerance(1e-6)
        assert schedule_inner_count(sched, ms.splittings[0]) == 100000

    def test_adaptive_infeasible_raises(self, monkeypatch):
        import mslcp.splitting
        monkeypatch.setattr(mslcp.splitting, "MAX_INNER_COUNT", 3)
        a = SparseMatrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        ms = build_block_splitting(a, Partition.contiguous(2, 1), "jacobi")
        sched = InnerSchedule.adaptive(1e-9)
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

    def test_gap_computed_only_where_it_can_stop_the_loop(
            self, monkeypatch, grid_problem, grid_multisplitting):
        # no gap is below theta and the cap is 5: solve 5 stops on the count,
        # so only solves 1 to 4 compute the gap; the two processors (groups
        # of one, since theta is set) share one splitting and one start, so
        # only the first runs the loop
        import mslcp.sync
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 2, "jacobi")
        gaps = []
        real = mslcp.sync.spmv

        def counting(a, x):
            if a is prob.A:
                gaps.append(len(x))
            return real(a, x)

        monkeypatch.setattr(mslcp.sync, "spmv", counting)
        monkeypatch.setattr(mslcp.sync, "MAX_INNER_COUNT", 5)
        sched = InnerSchedule.inner_tolerance(1e-300)
        counts = []
        _, rep = solve_sync(prob, ms, SolverConfig(schedule=sched,
                                                   max_outer=6),
                            on_step=lambda e: counts.append(e.inner_counts))
        assert counts == [(5, 5)] * rep.outer_iterations
        assert gaps == [prob.n] * (4 * rep.outer_iterations)


# every integer setting outside InnerSchedule, built from one value
INT_SETTINGS = {
    "max_outer": lambda v: SolverConfig(max_outer=v),
    "n": lambda v: Partition(v, 1, ((0, 1),)),
    "m": lambda v: Partition.contiguous(2, v),
    "p": lambda v: GridLcpSpec(v),
    "staleness_bound": lambda v: AsyncSchedule(staleness_bound=v),
    "period": lambda v: RoundRobin(v),
}


class TestIntegerSettings:
    @pytest.mark.parametrize("name", list(INT_SETTINGS))
    def test_numpy_int_is_stored_as_int(self, name):
        value = getattr(INT_SETTINGS[name](np.int64(2)), name)
        assert type(value) is int and value == 2

    @pytest.mark.parametrize("value", [2.0, 2.5, True])
    @pytest.mark.parametrize("name", list(INT_SETTINGS))
    def test_float_and_bool_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, "
                                             f"got {value!r}"):
            INT_SETTINGS[name](value)

    @pytest.mark.parametrize("value", [0, -5])
    @pytest.mark.parametrize("name", ["max_outer"])
    def test_count_below_one_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            INT_SETTINGS[name](value)

    @pytest.mark.parametrize("policy", [RoundRobin, lambda k: RandomFair(
        seed=k)], ids=["roundrobin", "random"])
    def test_numpy_int_settings_run_as_their_ints(self, grid_problem,
                                                  grid_multisplitting,
                                                  policy):
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 2, "jacobi")
        runs = []
        for k in (np.int64(2), 2):
            cfg = SolverConfig(schedule=InnerSchedule.fixed(2),
                               max_outer=20 * k)
            sched = AsyncSchedule(staleness_bound=k, policy=policy(k))
            runs.append(solve_async_sim(prob, ms, cfg, sched))
        (x, rep), (x_int, rep_int) = runs
        assert x.tobytes() == x_int.tobytes()
        assert _report_fields(rep) == _report_fields(rep_int)
        assert rep.outer_iterations == 40


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
        for i, idx in enumerate(ms.weighting.indicator_owners):
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
        w = spsolve(prob.A.to_scipy().tocsc(), np.ones(prob.n))
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

    @staticmethod
    def _diverging_general_set(prob):
        """Jacobi on two blocks, except that processor 1 gets a factor with
        entries above the diagonal (A's pattern, off-diagonals -3 against a
        diagonal of 4, N = 0) whose projected Gauss-Seidel grows until it
        overflows."""
        from mslcp import MultisplittingSet, Splitting
        base = build_block_splitting(prob.A, Partition.contiguous(9, 2),
                                     "jacobi")
        on_diag = prob.A.entry_rows() == prob.A.col_indices
        whole = Splitting(prob.A.same_pattern(np.where(on_diag, 4.0, -3.0)),
                          SparseMatrix.from_coo(9, 9, [], [], []))
        assert whole.structure == "general"
        return MultisplittingSet(
            (base.splittings[0], whole), base.weighting,
            matrix_class=base.matrix_class)

    def test_subsolve_failure_carries_step_and_processor(self, grid_problem):
        prob = grid_problem(3)
        ms = self._diverging_general_set(prob)
        cfg = SolverConfig(schedule=InnerSchedule.fixed(1), outer_tol=1e-6)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConvergenceError,
                               match="outer step 0, processor 1"):
                solve_sync(prob, ms, cfg)

    def test_diverging_general_subsolve_warns_about_nothing(self,
                                                             grid_problem):
        # the sweeps overflow; only the ConvergenceError reports it
        import warnings
        prob = grid_problem(3)
        ms = self._diverging_general_set(prob)
        cfg = SolverConfig(schedule=InnerSchedule.fixed(1), outer_tol=1e-6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConvergenceError,
                               match="processor 1: projected Gauss-Seidel: "
                                     "change became non-finite"):
                solve_sync(prob, ms, cfg)
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == []

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

    @pytest.mark.parametrize("make", [
        lambda v: SolverConfig(omega=v), lambda v: SolverConfig(outer_tol=v),
        InnerSchedule.inner_tolerance],
        ids=["omega", "outer_tol", "theta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_nonfinite_settings(self, make, value):
        with pytest.raises(ValueError, match=f"finite.*, got {value}$"):
            make(value)

    @pytest.mark.parametrize("sched, step", [
        (AsyncSchedule(), "1"),
        (AsyncSchedule(staleness_bound=2, policy=RoundRobin()), r"\d+")],
        ids=["sync", "roundrobin-d2"])
    def test_nonfinite_update_norm_names_the_step(self, grid_problem,
                                                  grid_multisplitting,
                                                  sched, step):
        # a finite omega = 1e308 moves step 0 by about 1e307; step 1's
        # blend is inf - inf
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 2, "jacobi")
        cfg = SolverConfig(omega=1e308, schedule=InnerSchedule.fixed(1))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConvergenceError,
                               match=f"diverged at outer step {step}: update "
                                     f"norm (nan|inf)"):
                solve_async_sim(prob, ms, cfg, sched)


def _reference_inner(prob, splitting, y0, count, theta):
    """One processor's inner loop, one checked ``spmv`` and one
    ``solve_sub_lcp`` call per solve; returns (y, solve count)."""
    from mslcp.errors import NonFiniteError
    y, done = y0, 0
    try:
        while True:
            f_vec = prob.f + spmv(splitting.N, y)
            y = solve_sub_lcp(splitting.M, splitting.structure, f_vec)
            done += 1
            if done >= count or (theta is not None and abs(
                    float(y @ (spmv(prob.A, y) - prob.f))) < theta):
                return y, done
    except NonFiniteError as exc:
        raise ConvergenceError(
            f"iteration diverged in inner solve {done + 1}: {exc}") from exc


def _reference_run(prob, ms, cfg, sched, x0=None):
    """The simulator's outer loop with one ``_reference_inner`` loop per
    processor and no grouping; returns (x, report, events)."""
    from collections import deque

    from mslcp.asynchronous import _accumulate, _blend, _pick_reads
    from mslcp.sync import StepEvent, _prologue

    report, x, counts = _prologue(prob, ms, cfg, x0)
    m = ms.m
    ring = deque([(x,) * m], maxlen=sched.staleness_bound + 1)
    policy_rng = np.random.default_rng(getattr(sched.policy, "seed", 0))
    reads_rng = np.random.default_rng(sched.reads_seed)
    window = sched.policy.fairness_window(m) + sched.staleness_bound
    changes, events = deque(maxlen=window), []
    for k in range(cfg.max_outer):
        reads = _pick_reads(sched, k, m, reads_rng)
        starts = tuple(ring[s - k - 1][i] for i, s in enumerate(reads))
        runs = []
        for i, y0 in enumerate(starts):
            try:
                runs.append(_reference_inner(prob, ms.splittings[i], y0,
                                             counts[i], cfg.schedule.theta))
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"subproblem solve failed at outer step {k}, "
                    f"processor {i}: {exc}") from exc
        ys = tuple(y for y, _ in runs)
        acc = _accumulate(ys, ms.weighting)
        updated = tuple(sorted(sched.policy.update_set(k, m, policy_rng)))
        streams = list(ring[-1])
        delta = 0.0
        for l in updated:
            new = _blend(acc, cfg.omega, streams[l])
            change = float(np.max(np.abs(new - streams[l])))
            if not np.isfinite(change):
                raise ConvergenceError(f"iteration diverged at outer step "
                                       f"{k}: update norm {change}")
            delta = max(delta, change)
            streams[l] = new
        changes.append(delta)
        ring.append(tuple(streams))
        report.outer_iterations = k + 1
        report.total_inner_iterations += sum(c for _, c in runs)
        events.append(StepEvent(k, tuple(reads), starts, ys,
                                tuple(c for _, c in runs), updated, delta,
                                ring[-1]))
        if len(changes) == window and max(changes) < cfg.outer_tol:
            report.converged = True
            break
    residuals = [natural_residual(prob, xl) for xl in ring[-1]]
    best = int(np.argmin(residuals))
    report.final_residual = residuals[best]
    return ring[-1][best], report, events


def _event_bytes(e):
    vectors = [v.tobytes() for group in (e.starts, e.ys, e.iterates)
               for v in group]
    return (e.k, e.reads, e.inner_counts, e.updated,
            np.float64(e.update_norm).tobytes(), vectors)


def _report_fields(rep):
    fields = dict(vars(rep))
    del fields["wall_time_seconds"]
    return fields


def _mixed_jacobi(prob):
    """Jacobi on four blocks where processor 2 alone has the damped splitting
    M = 2D, N = 2D - A: every processor reads the same start, but processor
    2's sub-solve differs."""
    from mslcp import MultisplittingSet, Splitting
    base = build_block_splitting(prob.A, Partition.contiguous(prob.n, 4),
                                 "jacobi")
    split = base.splittings[0]
    damped = Splitting(split.M.same_pattern(2.0 * split.M.values),
                       SparseMatrix.from_scipy(split.N.to_scipy()
                                               + split.M.to_scipy()))
    splits = tuple(damped if i == 2 else split for i in range(4))
    return MultisplittingSet(splits, base.weighting,
                             matrix_class=base.matrix_class)


def test_a_set_carries_only_its_own_radii(grid_problem):
    # the damped processor 2 has radius (1 + rho_J) / 2 = 0.95048; the set
    # used to carry the Jacobi radius rho_J = 0.90097 for it
    from mslcp import validate_multisplitting
    prob = grid_problem(6)
    ms = _mixed_jacobi(prob)
    report = validate_multisplitting(prob.A, ms)
    assert report.ok
    assert ms.contraction_estimates == report.contraction_estimates
    rho_j = np.cos(np.pi / 7)
    assert ms.contraction_estimates[0] == pytest.approx(rho_j, abs=1e-9)
    assert ms.contraction_estimates[2] == pytest.approx((1.0 + rho_j) / 2.0,
                                                        abs=1e-9)


def _uneven_partition(n, single_at):
    """Four contiguous blocks; block ``single_at`` is a single row."""
    sizes = [n // 3, n // 4, n - n // 3 - n // 4 - 1]
    sizes.insert(single_at, 1)
    bounds = np.cumsum([0] + sizes)
    return Partition(n, 4, tuple(np.arange(lo, hi)
                                 for lo, hi in zip(bounds, bounds[1:])))


def _general_among_exact(prob):
    """Block-lower on four blocks where processor 1's factor keeps all of
    A's diagonal block 1, upper entries too: a ``general`` factor, solved by
    projected Gauss-Seidel, among three lower-triangular ones."""
    from mslcp import MultisplittingSet, Splitting
    a = prob.A
    part = Partition.contiguous(prob.n, 4)
    base = build_block_splitting(a, part, "block_lower_triangular")
    rows, cols = a.entry_rows(), a.col_indices
    block = part.owner_sets[1]
    keep = (np.isin(rows, block) & np.isin(cols, block)) | (rows == cols)
    full = Splitting(a.same_pattern(np.where(keep, a.values, 0.0)),
                     a.same_pattern(np.where(keep, 0.0, -a.values)))
    splits = tuple(full if i == 1 else s
                   for i, s in enumerate(base.splittings))
    return MultisplittingSet(splits, base.weighting,
                             matrix_class=base.matrix_class)


def _recorded_stacks(monkeypatch, ms):
    """Record the stacks that the simulator builds from ``ms``'s splittings:
    returns a list that gains, per stack, its splitting objects in stack
    order."""
    import mslcp.asynchronous
    import mslcp.sparse
    built, real = [], mslcp.sparse._block_diagonal

    def recording(mats):
        # the M factors name the slots; the N call matches no M
        slots = [next((s for s in ms.splittings if s.M is a), None)
                 for a in mats]
        if None not in slots:
            built.append(tuple(slots))
        return real(mats)

    monkeypatch.setattr(mslcp.asynchronous, "_block_diagonal", recording)
    return built


def _stack_processors(ms, slots) -> tuple:
    """The processors whose splitting object a stack holds."""
    return tuple(i for i, s in enumerate(ms.splittings)
                 if any(s is t for t in slots))


def _positive_lower_problem(grid_problem):
    """The p=6 grid with entry (13, 12), inside block 1 of three, made
    positive: still H+ but no longer a Z-matrix, and M_1 stays lower
    triangular."""
    a = grid_problem(6).A
    vals = a.values.copy()
    at = np.flatnonzero((a.entry_rows() == 13) & (a.col_indices == 12))
    vals[at] = -vals[at]
    return LcpProblem(a.same_pattern(vals), grid_problem(6).f)


class TestStackedGroups:
    """The simulator runs processors with an exact row-local sub-solve and
    a count fixed in advance (any schedule but inner_tolerance) as one
    stacked solve; every result stays bit-identical to one inner loop per
    processor."""

    def _case(self, grid_problem, name):
        if "-stalest-" in name:
            # a synchronous case run as stalest async-sim at d = 2
            base, policy = name.split("-stalest-")
            prob, ms, schedule, _, omega = self._case(grid_problem, base)
            return prob, ms, schedule, AsyncSchedule(
                staleness_bound=2, policy=RandomFair(seed=4)
                if policy == "fair" else RoundRobin(2)), omega
        prob = grid_problem(6)
        n = prob.n
        jac = lambda m: build_block_splitting(
            prob.A, Partition.contiguous(n, m), "jacobi")
        low = lambda part: build_block_splitting(
            prob.A, part, "block_lower_triangular")
        fixed = InnerSchedule.fixed(3)
        sync = AsyncSchedule()
        rr = AsyncSchedule(staleness_bound=2, policy=RoundRobin(2))
        if name.startswith("jacobi-m"):
            return prob, jac(int(name[-1])), fixed, sync, 1.2
        if name.startswith("lower-single-at"):
            part = _uneven_partition(n, int(name[-1]))
            return prob, low(part), fixed, sync, 0.8
        if name == "lower-adaptive":
            return prob, low(_uneven_partition(n, 0)), \
                InnerSchedule.adaptive(0.2), sync, 1.0
        if name == "positive-lower":
            pos = _positive_lower_problem(grid_problem)
            ms = build_block_splitting(pos.A, Partition.contiguous(n, 3),
                                       "block_lower_triangular")
            return pos, ms, fixed, sync, 1.0
        if name == "innertol":
            # four splittings at one start: four new pairs at every step
            return prob, low(Partition.contiguous(n, 4)), \
                InnerSchedule.inner_tolerance(1e-6), sync, 1.0
        if name == "async-jacobi":
            return prob, jac(4), fixed, rr, 0.9
        if name.startswith("async-random-"):
            fair = AsyncSchedule(staleness_bound=3, policy=RandomFair(seed=4),
                                 reads=name.rsplit("-", 1)[1])
            return prob, jac(4), fixed, fair, 0.9
        if name == "lower-m4":
            return prob, low(Partition.contiguous(n, 4)), fixed, sync, 1.0
        if name == "mixed-splitting":
            return prob, _mixed_jacobi(prob), fixed, sync, 1.0
        if name == "general-among-exact":
            return prob, _general_among_exact(prob), fixed, sync, 1.0
        assert name == "async-lower"
        return prob, low(_uneven_partition(n, 2)), fixed, rr, 1.1

    # the stacks that a solve builds, each as the processors whose
    # splitting it holds; a processor in no stack is solved alone.  The
    # processors of one Jacobi splitting stack only at steps where their
    # starts differ, or under stalest reads, and one splitting at one start
    # is solved once
    CASES = {
        "jacobi-m1": set(),
        "jacobi-m2": set(),
        "jacobi-m4": set(),
        # the one-row block's factor is diagonal; it stacks with the
        # lower-triangular ones
        "lower-single-at-0": {(0, 1, 2, 3)},
        "lower-single-at-2": {(0, 1, 2, 3)},
        # adaptive counts 20, 18, 17, 18
        "lower-adaptive": {(1, 3)},
        "positive-lower": {(0, 1, 2)},
        # inner_tolerance stacks nothing, though every step has four new
        # pairs of one count
        "innertol": set(),
        # round robin changes one stream per step, so a step has at most
        # one new pair, but stalest reads stack it with the new pairs of
        # the next d steps
        "async-jacobi": {(0, 1, 2, 3)},
        "async-lower": {(0, 1, 2, 3)},
        "async-random-stalest": {(0, 1, 2, 3)},
        "async-random-uniform": {(0, 1, 2, 3)},
        "async-random-latest": {(0, 1, 2, 3)},
        # processors 0, 1 and 3 share one splitting and one start, and
        # processor 2 is a group of its own splitting: one pair each a step
        "mixed-splitting": set(),
        # the general factor of processor 1 is solved alone
        "general-among-exact": {(0, 2, 3)},
        # under stalest reads a group of one still solves one pair a step,
        # the one-row diagonal block looks ahead with its block-lower
        # group, and the shared and the own splitting of a mixed set each
        # stack their own group's slots
        "innertol-stalest-fair": set(),
        "innertol-stalest-rr": set(),
        "general-among-exact-stalest-fair": {(0, 2, 3)},
        "general-among-exact-stalest-rr": {(0, 2, 3)},
        "lower-single-at-0-stalest-fair": {(0, 1, 2, 3)},
        "lower-single-at-0-stalest-rr": {(0, 1, 2, 3)},
        "mixed-splitting-stalest-fair": {(0, 1, 3), (2,)},
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_bitwise_equal_to_one_loop_per_processor(self, grid_problem,
                                                     monkeypatch, name):
        prob, ms, schedule, sched, omega = self._case(grid_problem, name)
        cfg = SolverConfig(omega=omega, schedule=schedule, outer_tol=1e-8,
                           max_outer=400)
        if name == "positive-lower":
            # M_1's positive strict-lower entry leaves it lower triangular
            assert [s.structure for s in ms.splittings] == [
                "lower_triangular"] * 3
        if name == "general-among-exact":
            assert [s.structure for s in ms.splittings] == [
                "lower_triangular", "general", "lower_triangular",
                "lower_triangular"]
        built = _recorded_stacks(monkeypatch, ms)
        events = []
        x, rep = solve_async_sim(prob, ms, cfg, sched, on_step=events.append)
        assert {_stack_processors(ms, slots) for slots in built} \
            == self.CASES[name]
        x_ref, rep_ref, events_ref = _reference_run(prob, ms, cfg, sched)
        assert rep.converged
        assert x.tobytes() == x_ref.tobytes()
        assert _report_fields(rep) == _report_fields(rep_ref)
        assert rep.total_inner_iterations == sum(
            sum(e.inner_counts) for e in events)
        assert len(events) == len(events_ref) == rep.outer_iterations
        for e, e_ref in zip(events, events_ref):
            assert _event_bytes(e) == _event_bytes(e_ref)
            assert all(len(y) == prob.n and not y.flags.writeable
                       for y in e.ys)

    def test_stacks_are_shared_by_equal_splitting_sequences(
            self, grid_problem, monkeypatch):
        # a solve builds at most one stack per sequence of two or more
        # splitting objects and reuses it at every later step; one pair
        # runs on its splitting itself
        prob = grid_problem(6)
        part = Partition.contiguous(prob.n, 4)
        jac = build_block_splitting(prob.A, part, "jacobi")
        low = build_block_splitting(prob.A, part, "block_lower_triangular")
        fair = AsyncSchedule(staleness_bound=3, policy=RandomFair(seed=4))
        latest = AsyncSchedule(staleness_bound=3, policy=RandomFair(seed=4),
                               reads="latest")
        cfg = SolverConfig(omega=0.9, schedule=InnerSchedule.fixed(3),
                           max_outer=60)
        sizes = []
        for ms, sched in ((jac, fair), (low, fair), (jac, latest),
                          (_mixed_jacobi(prob), fair)):
            built = _recorded_stacks(monkeypatch, ms)
            _, rep = solve_async_sim(prob, ms, cfg, sched)
            assert rep.outer_iterations > 10
            keys = [tuple(map(id, slots)) for slots in built]
            assert keys and len(keys) == len(set(keys))
            sizes.append({len(slots) for slots in built})
        # a step stacks the Jacobi pairs that no earlier step solved, and
        # under stalest reads the new pairs of the next d steps, up to
        # (d + 1) m = 16 of them; a block-lower splitting without a new pair
        # re-solves one, so a loop stacks all four once per ring slot that
        # it covers.  Each group builds its largest stack, of 16 blocks, and
        # runs a smaller one on its leading blocks.  Latest reads take no
        # pairs ahead: a step stacks the two to four new Jacobi pairs on the
        # leading blocks of one 4-block stack.  A mixed set's shared
        # splitting (3 processors) and own one (1) each build their own
        assert sizes == [{16}, {16}, {4}, {12, 4}]

    # distinct (splitting, start) pairs at every step of a synchronous
    # solve; None for the asynchronous ones, where it varies
    ROWS = {"jacobi-m4": 1, "lower-m4": 4, "mixed-splitting": 2,
            "async-random-stalest": None, "async-random-uniform": None,
            "async-random-latest": None}

    @pytest.mark.parametrize("name", list(ROWS))
    def test_one_solve_per_distinct_splitting_and_start(self, grid_problem,
                                                        monkeypatch, name):
        # over a whole solve each (splitting, start) pair reaches the inner
        # loop once, no later than the step that first reads it: a step runs
        # one inner loop a group, of q = 3 solves, on the stack of the pairs
        # that no earlier step solved, or none at all, and under stalest
        # reads that loop also takes the new pairs that the next d steps read
        import mslcp.asynchronous
        prob, ms, schedule, sched, _ = self._case(grid_problem, name)
        n, d = prob.n, sched.staleness_bound
        loops = []
        run = mslcp.asynchronous._run_processor_inner

        def counting(prob, splitting, f, y0, count, theta):
            y, done = run(prob, splitting, f, y0, count, theta)
            loops.append((len(steps), y, done))
            return y, done

        monkeypatch.setattr(mslcp.asynchronous, "_run_processor_inner",
                            counting)
        for omega in (1.0, 0.9):
            # the events keep every start alive, so no id is reused; first
            # maps each pair to its first read and the y that it got
            events, first, steps = [], {}, []
            loops.clear()

            def step(e):
                events.append(e)
                pairs = [(id(ms.splittings[i]), id(y0))
                         for i, y0 in enumerate(e.starts)]
                new = 0
                for pair, y in zip(pairs, e.ys):
                    if pair not in first:
                        first[pair] = (e.k, y)
                        new += 1
                steps.append((len(set(pairs)), new))

            cfg = SolverConfig(omega=omega, schedule=schedule, outer_tol=1e-8,
                               max_outer=60)
            _, rep = solve_async_sim(prob, ms, cfg, sched, on_step=step)
            assert len(steps) == rep.outer_iterations > 10
            # a step runs at most one loop a group (the mixed set has two),
            # and only when it reads a new pair; at d = 0 every such step
            # runs one a group
            ran = [k for k, _, _ in loops]
            news = [k for k, (_, new) in enumerate(steps) if new]
            groups = 2 if name == "mixed-splitting" else 1
            assert max(Counter(ran).values()) <= groups
            assert set(ran) <= set(news)
            assert d > 0 or ran == [k for k in news for _ in range(groups)]
            assert {done for _, _, done in loops} == {3}
            # each read pair's y is one block of one loop, run by the step
            # that first reads it or an earlier one
            ran_at = {id(y): k for k, y, _ in loops}
            blocks = set()
            for k, y in first.values():
                whole = y if y.base is None else y.base
                assert ran_at[id(whole)] <= k
                blocks.add((id(whole),
                            (y.ctypes.data - whole.ctypes.data) // (8 * n)))
            assert len(blocks) == len(first)
            # the blocks of no read pair belong to reads after the last
            # step, which a loop of the last d + 1 steps solved ahead
            for k, y, _ in loops:
                unread = len(y) // n - sum(b[0] == id(y) for b in blocks)
                assert unread == 0 or k >= len(steps) - 1 - d
            if self.ROWS[name] is not None:
                # no start is read twice, so every pair is new
                assert set(steps) == {(self.ROWS[name], self.ROWS[name])}
            else:
                # streams coincide at some steps and differ at others, and
                # some steps reuse pairs that an earlier step solved
                assert max(d for d, _ in steps) > 1
                assert len(first) < sum(d for d, _ in steps)

    @pytest.mark.parametrize("variant", ["jacobi", "block_lower_triangular"])
    def test_stalest_reads_solve_the_next_steps_in_one_loop(
            self, grid_problem, monkeypatch, variant):
        # at step k the ring holds the reads of steps k to k + d, and a
        # step's loop solves the new pairs of all of them, so after step d
        # no two loops of a group fall within d + 1 consecutive steps.  A
        # lookahead that missed one slot would leave it to a step of its own
        import mslcp.asynchronous
        prob = grid_problem(6)
        ms = build_block_splitting(prob.A, Partition.contiguous(prob.n, 4),
                                   variant)
        d = 3
        sched = AsyncSchedule(staleness_bound=d, policy=RandomFair(seed=4))
        cfg = SolverConfig(omega=0.9, schedule=InnerSchedule.fixed(3),
                           outer_tol=1e-8, max_outer=200)
        at, steps = [], []
        run = mslcp.asynchronous._run_processor_inner

        def counting(*args):
            at.append(len(steps))
            return run(*args)

        monkeypatch.setattr(mslcp.asynchronous, "_run_processor_inner",
                            counting)
        x, rep = solve_async_sim(prob, ms, cfg, sched, on_step=steps.append)
        x_ref, rep_ref, _ = _reference_run(prob, ms, cfg, sched)
        assert rep.converged and x.tobytes() == x_ref.tobytes()
        assert _report_fields(rep) == _report_fields(rep_ref)
        later = [k for k in at if k > d]
        assert at[0] == 0 and len(later) * (d + 1) >= len(steps) - 2 * d - 2
        assert min(b - a for a, b in zip(later, later[1:])) >= d + 1

    @staticmethod
    def _sharing_pattern(prob, rng, mixed):
        """2 to 6 processors, each given the shared Jacobi splitting, the
        shared damped one (M = 2D, N = 2D - A) or the block-lower splitting
        object of a random block, so some objects are shared and some held
        alone; with ``mixed`` at least one is shared and at least two are
        distinct."""
        while True:
            p = int(rng.integers(3 if mixed else 2, 7))
            part = Partition.contiguous(prob.n, p)
            jac = build_block_splitting(prob.A, part, "jacobi")
            low = build_block_splitting(prob.A, part, "block_lower_triangular")
            split = jac.splittings[0]
            damped = Splitting(split.M.same_pattern(2.0 * split.M.values),
                               SparseMatrix.from_scipy(split.N.to_scipy()
                                                       + split.M.to_scipy()))
            pool = [split, damped, *low.splittings]
            picks = rng.integers(0, len(pool), size=p)
            held = Counter(picks.tolist())
            if not mixed or (len(held) > 1 and max(held.values()) > 1):
                return MultisplittingSet(tuple(pool[j] for j in picks),
                                         jac.weighting,
                                         matrix_class=jac.matrix_class)

    @pytest.mark.parametrize("policy", ["all", "rr", "fair"])
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    @pytest.mark.parametrize("reads", ["stalest", "latest", "uniform"])
    def test_random_sharing_patterns_match_one_loop_per_processor(
            self, grid_problem, monkeypatch, reads, d, policy):
        # the processors of one shared splitting object form a group, those
        # that hold their own form one; each group builds at most one stack
        # and runs at most one loop a step, and under stalest reads a
        # group's loops after step d lie at least d + 1 steps apart
        import mslcp.asynchronous
        prob = grid_problem(6)
        rng = np.random.default_rng([d, READ_RULES.index(reads),
                                     len(policy)])
        stalest = reads == "stalest" and d > 0
        ms = self._sharing_pattern(prob, rng, stalest)
        held = Counter(map(id, ms.splittings))
        own = frozenset(id(s) for s in ms.splittings if held[id(s)] == 1)
        group_of = {id(s): own if id(s) in own else frozenset([id(s)])
                    for s in ms.splittings}
        policies = {"all": AllEveryStep(), "rr": RoundRobin(2),
                    "fair": RandomFair(seed=int(rng.integers(100)))}
        sched = AsyncSchedule(staleness_bound=d, policy=policies[policy],
                              reads=reads, reads_seed=int(rng.integers(100)))
        stacks, loops = {}, []
        real_stack = mslcp.sparse._block_diagonal
        run = mslcp.asynchronous._run_processor_inner

        def stacking(mats):
            out = real_stack(mats)
            slots = [next((s for s in ms.splittings if s.M is a), None)
                     for a in mats]
            if None not in slots:
                stacks[id(out.values)] = frozenset(map(id, slots))
            return out

        def counting(prob, splitting, f, y0, count, theta):
            if any(splitting is s for s in ms.splittings):
                group = group_of[id(splitting)]
            else:
                root = splitting.M.values
                while root.base is not None:
                    root = root.base
                group = stacks[id(root)]
            loops.append((len(events), group))
            return run(prob, splitting, f, y0, count, theta)

        monkeypatch.setattr(mslcp.asynchronous, "_block_diagonal", stacking)
        monkeypatch.setattr(mslcp.asynchronous, "_run_processor_inner",
                            counting)
        for omega in (0.9, 1.0):
            stacks.clear()
            loops.clear()
            events = []
            cfg = SolverConfig(omega=omega, schedule=InnerSchedule.fixed(2),
                               outer_tol=1e-8, max_outer=80)
            x, rep = solve_async_sim(prob, ms, cfg, sched,
                                     on_step=events.append)
            x_ref, rep_ref, events_ref = _reference_run(prob, ms, cfg, sched)
            assert x.tobytes() == x_ref.tobytes()
            assert _report_fields(rep) == _report_fields(rep_ref)
            assert len(events) == len(events_ref)
            for e, e_ref in zip(events, events_ref):
                assert _event_bytes(e) == _event_bytes(e_ref)
            # one stack a group, holding that group's splittings
            built = list(stacks.values())
            assert len(built) == len(set(built))
            assert all(group_of[next(iter(g))] == g for g in built)
            assert max(Counter(loops).values()) == 1
            if stalest:
                for group in set(group_of.values()):
                    at = [k for k, g in loops if g == group and k > d]
                    assert all(b - a >= d + 1 for a, b in zip(at, at[1:]))

    def test_a_solve_is_forgotten_once_its_start_leaves_the_ring(
            self, grid_problem):
        # a start stays alive while the ring (d + 1 tuples of m streams) or
        # the step holds it, or while the map does, which is swept once it
        # holds more than m (d + 1) entries; a map that kept every solve
        # would keep every start it was solved from
        import weakref
        prob, ms, schedule, sched, omega = self._case(grid_problem,
                                                      "async-random-uniform")
        cfg = SolverConfig(omega=omega, schedule=schedule, outer_tol=1e-8,
                           max_outer=80)
        refs, alive = [], []

        def step(e):
            refs.extend(weakref.ref(x) for x in {id(x): x
                                                 for x in e.starts}.values())
            alive.append(len({id(r()) for r in refs if r() is not None}))

        solve_async_sim(prob, ms, cfg, sched, on_step=step)
        slots = (sched.staleness_bound + 1) * ms.m
        assert len(refs) > 4 * slots
        assert max(alive) <= 2 * slots + 2 * ms.m

    @pytest.mark.parametrize("bad, inner", [(2, 1), (1, 2)])
    def test_divergence_names_the_lowest_nonfinite_member(self, grid_problem,
                                                          bad, inner):
        from mslcp import MultisplittingSet, Splitting
        prob = grid_problem(4)
        base = build_block_splitting(prob.A, Partition.contiguous(16, 4),
                                     "jacobi")
        split = base.splittings[0]
        if inner == 1:
            # F = f + N y overflows in the first solve of processor ``bad``
            odd = Splitting(split.M,
                            split.N.same_pattern(split.N.values * 1e308))
        else:
            # y = F / M overflows, so the second solve's spmv rejects it
            odd = Splitting(SparseMatrix.from_diagonal(np.full(16, 5e-324)),
                            split.N)
        splits = tuple(odd if i == bad else split for i in range(4))
        ms = MultisplittingSet(splits, base.weighting,
                               matrix_class=base.matrix_class)
        cfg = fixed_cfg(3)
        x0 = np.ones(16)
        with np.errstate(over="ignore"):
            with pytest.raises(ConvergenceError) as got:
                solve_sync(prob, ms, cfg, x0=x0)
            with pytest.raises(ConvergenceError) as want:
                _reference_run(prob, ms, cfg, AsyncSchedule(), x0=x0)
        assert str(got.value) == str(want.value)
        assert (f"outer step 0, processor {bad}: iteration diverged in inner "
                f"solve {inner}: ") in str(got.value)

    def test_divergence_in_two_groups_names_the_lowest_processor(
            self, grid_problem):
        # processors 0 and 3 hold their own block-lower splittings and form
        # the group that runs first; 1 and 2 share a Jacobi one.  Processors
        # 1 and 3 have N scaled by 1e308, so both groups fail in the first
        # solve of step 0, and the error names processor 1, as one loop per
        # processor in processor order does
        from mslcp import MultisplittingSet, Splitting
        prob = grid_problem(4)
        part = Partition.contiguous(16, 4)
        low = build_block_splitting(prob.A, part, "block_lower_triangular")
        jac = build_block_splitting(prob.A, part, "jacobi").splittings[0]

        def odd(split):
            return Splitting(split.M,
                             split.N.same_pattern(split.N.values * 1e308))

        odd_jac = odd(jac)
        ms = MultisplittingSet((low.splittings[0], odd_jac, odd_jac,
                                odd(low.splittings[3])), low.weighting,
                               matrix_class=low.matrix_class)
        cfg, x0 = fixed_cfg(3), np.ones(16)
        with np.errstate(over="ignore"):
            with pytest.raises(ConvergenceError) as got:
                solve_sync(prob, ms, cfg, x0=x0)
            with pytest.raises(ConvergenceError) as want:
                _reference_run(prob, ms, cfg, AsyncSchedule(), x0=x0)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(
            "subproblem solve failed at outer step 0, processor 1: "
            "iteration diverged in inner solve 1: ")

    @pytest.mark.parametrize("bad", [1, 3])
    def test_divergence_after_a_step_of_reused_solves(self, grid_problem,
                                                      monkeypatch, bad):
        # reads of step 0 (stalest, d = 3) make steps 1 to 3 reuse every
        # solve of step 0, which runs one loop for the three processors of
        # the shared splitting and one for processor ``bad``'s own; ``bad``
        # has N scaled by 1e100, so its
        # iterate grows by about 1e100 a solve: two solves reach 1e200 at
        # step 0, and at step 4, which reads that stream, its second solve's
        # F = f + N y overflows
        import mslcp.asynchronous
        prob = grid_problem(4)
        base = build_block_splitting(prob.A, Partition.contiguous(16, 4),
                                     "jacobi")
        split = base.splittings[0]
        odd = Splitting(split.M, split.N.same_pattern(split.N.values * 1e100))
        ms = MultisplittingSet(tuple(odd if i == bad else split
                                     for i in range(4)),
                               base.weighting, matrix_class=base.matrix_class)
        cfg, x0 = fixed_cfg(2), np.ones(16)
        sched = AsyncSchedule(staleness_bound=3)
        loops, run = [], mslcp.asynchronous._run_processor_inner

        def counting(*args):
            loops.append(None)
            return run(*args)

        monkeypatch.setattr(mslcp.asynchronous, "_run_processor_inner",
                            counting)
        per_step = []

        def step(e):
            per_step.append(len(loops))
            loops.clear()

        with np.errstate(over="ignore"):
            with pytest.raises(ConvergenceError) as got:
                solve_async_sim(prob, ms, cfg, sched, x0=x0, on_step=step)
            with pytest.raises(ConvergenceError) as want:
                _reference_run(prob, ms, cfg, sched, x0=x0)
        assert per_step == [2, 0, 0, 0]
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(
            f"subproblem solve failed at outer step 4, processor {bad}: "
            f"iteration diverged in inner solve 2: forcing vector contains "
            f"non-finite entries")

    def test_divergence_first_in_a_start_that_a_later_step_reads(
            self, grid_problem, monkeypatch):
        # each processor holds its own Jacobi splitting object, processor
        # 3's with N scaled by 1e50, and round robin updates one stream a
        # step.  Under stalest reads (d = 3) the loop of step 8 also solves
        # the pairs that steps 9 to 11 read, and the newest start, read at
        # step 11, is the first whose solves overflow.  Steps 8 to 10 then
        # solve their own pairs alone, and step 11 fails with the message
        # of a run that solves each step's pairs at that step
        import warnings
        import mslcp.asynchronous
        prob = grid_problem(4)
        base = build_block_splitting(prob.A, Partition.contiguous(16, 4),
                                     "jacobi")
        split = base.splittings[0]
        ms = MultisplittingSet(
            tuple(Splitting(split.M, split.N.same_pattern(
                split.N.values * (1e50 if i == 3 else 1.0))) for i in range(4)),
            base.weighting, matrix_class=base.matrix_class)
        cfg, x0 = fixed_cfg(3), np.ones(16)
        sched = AsyncSchedule(staleness_bound=3, policy=RoundRobin())
        loops, steps = [], []
        run = mslcp.asynchronous._run_processor_inner

        def logging(*args):
            loops.append([len(steps), len(args[3]) // 16, False])
            out = run(*args)
            loops[-1][2] = True
            return out

        monkeypatch.setattr(mslcp.asynchronous, "_run_processor_inner",
                            logging)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConvergenceError) as got:
                solve_async_sim(prob, ms, cfg, sched, x0=x0,
                                on_step=steps.append)
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == []
        with np.errstate(over="ignore"):
            with pytest.raises(ConvergenceError) as want:
                _reference_run(prob, ms, cfg, sched, x0=x0)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(
            "subproblem solve failed at outer step 11, processor 3: ")
        # a loop holds the four processors' pairs once per slot, the new
        # one and re-solves of the other three
        assert [tuple(l) for l in loops if l[0] >= 8] == [
            (8, 16, False), (8, 4, True), (9, 16, False), (9, 4, True),
            (10, 16, False), (10, 4, True), (11, 16, False), (11, 4, False)]


class TestClampDivergence:
    """A diverging clamp sub-solve (a ``diagonal`` factor) fails with the
    message of the checked per-solve loop in ``_reference_inner``: one case
    for each vector that can turn non-finite."""

    @staticmethod
    def _jacobi_set(grid_problem, m, tiny=False, n_scale=1.0):
        """Jacobi on the p=4 grid with m blocks, every processor sharing one
        splitting: M = 5e-324 I if ``tiny``, and N scaled by ``n_scale``."""
        prob = grid_problem(4)
        base = build_block_splitting(prob.A, Partition.contiguous(16, m),
                                     "jacobi")
        split = base.splittings[0]
        odd = Splitting(
            SparseMatrix.from_diagonal(np.full(16, 5e-324)) if tiny
            else split.M, split.N.same_pattern(split.N.values * n_scale))
        return MultisplittingSet((odd,) * m, base.weighting,
                                 matrix_class=base.matrix_class)

    SECOND = ("subproblem solve failed at outer step 0, processor 0: "
              "iteration diverged in inner solve 2: ")
    CASES = {
        # F = f + N y overflows in the second solve
        "forcing-vector": (dict(m=2, n_scale=1e200), InnerSchedule.fixed(3),
                           SECOND + "forcing vector contains non-finite "
                                    "entries"),
        # F / M overflows to +inf in the first solve, and the second solve
        # rejects that y
        "x-before-the-last-solve": (
            dict(m=2, tiny=True), InnerSchedule.fixed(3),
            SECOND + "x contains non-finite entries"),
        # theta is set: the gap after the first solve rejects that y,
        # naming the second solve
        "x-before-the-gap": (
            dict(m=2, tiny=True), InnerSchedule.inner_tolerance(1e-8),
            SECOND + "x contains non-finite entries"),
        # +inf from the last solve is returned, and the update norm
        # reports it
        "last-solve": (dict(m=1, tiny=True), InnerSchedule.fixed(1),
                       "iteration diverged at outer step 0: update norm inf"),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_message_names_the_vector_that_failed(self, grid_problem, name):
        kw, schedule, message = self.CASES[name]
        prob = grid_problem(4)
        ms = self._jacobi_set(grid_problem, **kw)
        cfg = SolverConfig(schedule=schedule)
        with np.errstate(over="ignore"):
            with pytest.raises(ConvergenceError) as got:
                solve_sync(prob, ms, cfg, x0=np.ones(16))
            with pytest.raises(ConvergenceError) as want:
                _reference_run(prob, ms, cfg, AsyncSchedule(), x0=np.ones(16))
        assert str(got.value) == str(want.value) == message

    def test_negative_overflow_clamps_to_zero_and_goes_on(self,
                                                          grid_problem):
        # f = -1 and M = 5e-324 I: every F / M is -inf, which clamps to 0.0
        prob = LcpProblem(grid_problem(4).A, -np.ones(16))
        ms = self._jacobi_set(grid_problem, 2, tiny=True)
        cfg = SolverConfig(schedule=InnerSchedule.fixed(2))
        events = []
        with np.errstate(over="ignore"):
            x, rep = solve_sync(prob, ms, cfg, on_step=events.append)
            x_ref, rep_ref, events_ref = _reference_run(prob, ms, cfg,
                                                        AsyncSchedule())
        assert rep.converged and rep.total_inner_iterations == 2 * ms.m
        assert x.tobytes() == x_ref.tobytes() == np.zeros(16).tobytes()
        assert _report_fields(rep) == _report_fields(rep_ref)
        assert [_event_bytes(e) for e in events] == [
            _event_bytes(e) for e in events_ref]

    def test_nonfinite_start_names_the_first_solve(self, grid_problem,
                                                   grid_multisplitting):
        # a threaded worker can read a published iterate that holds +inf
        from mslcp.sync import _run_processor_inner
        prob = grid_problem(4)
        split = grid_multisplitting(4, 2).splittings[1]
        y0 = np.ones(16)
        y0[5] = np.inf
        with pytest.raises(ConvergenceError) as got:
            _run_processor_inner(prob, split, prob.f, y0, 2, None)
        assert str(got.value) == ("iteration diverged in inner solve 1: x "
                                  "contains non-finite entries")
        assert got.value.index == 5

    def test_huge_finite_entries_raise_no_warning(self, grid_problem):
        # N = 1e307 (M - A): the first solve's F is finite, yet its entries
        # sum past the largest double; the second solve's F overflows
        import warnings
        prob = grid_problem(4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ms = self._jacobi_set(grid_problem, 2, n_scale=1e307)
            with pytest.raises(ConvergenceError) as got:
                solve_sync(prob, ms, fixed_cfg(3), x0=np.ones(16))
        assert str(got.value) == self.SECOND + ("forcing vector contains "
                                                "non-finite entries")
        assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("structure", ["diagonal", "lower_triangular"])
def test_infinite_entry_that_no_row_reads_is_recomputed(structure):
    """The first solve overflows y_1 to +inf.  No row of N reads y_1, so the
    second solve's F is finite and recomputes y_1 as max(0, -1 / 5e-324) =
    0.0.  The checked loop of ``_reference_inner`` rejects y at solve 2."""
    from mslcp.sync import _run_processor_inner
    m = [[1.0, 0.0, 0.0], [0.0, 5e-324, 0.0],
         [-0.5 if structure == "lower_triangular" else 0.0, 0.0, 1.0]]
    split = Splitting(SparseMatrix.from_dense(m), SparseMatrix.from_coo(
        3, 3, [1], [0], [-1.0]))
    assert split.structure == structure
    prob = LcpProblem(SparseMatrix.identity(3), [2.0, 1.0, 1.0])
    with np.errstate(over="ignore"):
        first, _ = _run_processor_inner(prob, split, prob.f, np.zeros(3),
                                        1, None)
        assert first[1] == np.inf
        y, count = _run_processor_inner(prob, split, prob.f, np.zeros(3),
                                        2, None)
        with pytest.raises(ConvergenceError, match="inner solve 2: x "):
            _reference_inner(prob, split, np.zeros(3), 2, None)
    assert count == 2
    assert y.tobytes() == np.array(
        [2.0, 0.0, 2.0 if structure == "lower_triangular" else 1.0]).tobytes()


def _weighted_sum(ys, weighting):
    """sum_i E_i y_i by the loop, entries added in processor order."""
    acc = np.zeros(weighting.n)
    for w, y in zip(weighting.weights, ys):
        acc += w * y
    return acc


def _rounded_grid(p):
    """The grid problem with its forcing rounded to multiples of 2^-20.

    Rounding takes the last bits of ``np.sin``, which may differ between
    numpy builds, out of the data.  The solves then add and subtract
    products with 1 and 4, and divide by 4, so their bits do not depend on
    fused multiply-add either.
    """
    prob = make_grid_lcp(GridLcpSpec(p))
    return LcpProblem(prob.A, np.round(prob.f * 2.0 ** 20) / 2.0 ** 20)


class TestLeanStepPath:
    """The step loop's shortcuts (one shared y per one-representative group,
    y + 0.0 for the indicator sum of one shared y) change no bit."""

    def test_indicator_shortcut_equals_the_loop_on_negative_zeros(self):
        from mslcp.asynchronous import _accumulate
        y = np.array([-0.0, 0.0, 1.5, -0.0, -2.0, 3e-320, -0.0])
        weighting = WeightingScheme.indicator(Partition.contiguous(7, 3))
        acc = _accumulate((y,) * 3, weighting)
        assert acc.tobytes() == _weighted_sum((y,) * 3, weighting).tobytes()
        assert acc is not y and not np.any(np.signbit(acc[[0, 1, 3]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_shared_y_takes_the_loop(self, bad):
        from mslcp.asynchronous import _accumulate
        y = np.array([1.0, bad, -0.0, 2.0])
        weighting = WeightingScheme.indicator(Partition.contiguous(4, 2))
        with np.errstate(invalid="ignore"):
            acc = _accumulate((y, y), weighting)
            assert acc.tobytes() == _weighted_sum((y, y),
                                                  weighting).tobytes()
        # 0.0 * inf and 0.0 * nan are nan, which y + 0.0 would not give
        assert np.isnan(acc[1])

    def test_non_indicator_weighting_takes_the_loop(self):
        from mslcp.asynchronous import _accumulate
        y = np.random.default_rng(3).standard_normal(12)
        weighting = WeightingScheme((np.full(12, 0.3), np.full(12, 0.7)))
        acc = _accumulate((y, y), weighting)
        assert acc.tobytes() == _weighted_sum((y, y), weighting).tobytes()
        assert acc.tobytes() != (y + 0.0).tobytes()

    def test_overflowing_shared_y_names_the_same_step(self, grid_problem):
        # M = 5e-324 I makes the one inner solve overflow to inf; the loop
        # turns 0.0 * inf into nan, and the update norm reports it at the
        # step where the solver without the shortcut reported it
        prob = grid_problem(4)
        base = build_block_splitting(prob.A, Partition.contiguous(16, 2),
                                     "jacobi")
        tiny = Splitting(SparseMatrix.from_diagonal(np.full(16, 5e-324)),
                         base.splittings[0].N)
        ms = MultisplittingSet((tiny, tiny), base.weighting,
                               matrix_class=base.matrix_class)
        cfg = fixed_cfg(1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConvergenceError) as got:
                solve_sync(prob, ms, cfg, x0=np.ones(16))
            with pytest.raises(ConvergenceError) as want:
                _reference_run(prob, ms, cfg, AsyncSchedule(), x0=np.ones(16))
        assert str(got.value) == str(want.value)
        assert str(got.value) == ("iteration diverged at outer step 0: "
                                  "update norm nan")

    def test_one_representative_hands_out_its_read_only_y(self, grid_problem,
                                                          grid_multisplitting):
        prob = grid_problem(4)
        ms = grid_multisplitting(4, 4, "jacobi")
        events = []
        solve_sync(prob, ms, fixed_cfg(2, max_outer=5), on_step=events.append)
        for e in events:
            y = e.ys[0]
            assert len(y) == prob.n and not y.flags.writeable
            assert all(v is y for v in e.ys)

    # sha256 of every StepEvent's vectors and scalars, then x and the
    # report, recorded from the solver before these shortcuts (a
    # concatenated start for every group, slices for every ys, the loop for
    # every weighting); omega_bound is left out, since it comes from ARPACK
    # during set-up, outside the step loop
    DIGESTS = {
        "jacobi-p40-sync":
            "b2298d5c7db3690a8ec370a70b0f296da7076f62728ef1c5e7c4915399c4c7d0",
        "lower-p16-sync":
            "f03631c09fc7b08f807e90847a3660374afec175406f09c8003c7f958b34b9d5",
        "jacobi-p24-async-random":
            "28869c3dc13ed53bee2b18da09473d752e99e5b921c5b3a847ae2e0238d8ad8e",
        "jacobi-p16-weighted":
            "d54163e6e9f5fc9861b45292d6ca558a2fcfcccd5f3971ba26769cacc9fef7fc",
        # recorded from the solver that resolved each schedule to bounds
        # (lo, hi), with inner_tolerance at its default (1, 100000)
        "jacobi-p16-innertol":
            "f3b8f6cef9435b854b94beb6a30d9604e45c200ce6099cacb34ace7c089dd939",
        "lower-p16-adaptive":
            "23764feeb661f54d6b95f906803dda27208d5ef97621dff038bc4349ece0a9a0",
    }
    # (inner schedule, outer tolerance) where a case does not use fixed(4)
    # and 1e-6; at 1e-12 the gap stops inner loops after 1 and 879 solves
    SCHEDULES = {
        "jacobi-p16-innertol": (InnerSchedule.inner_tolerance(1e-8), 1e-12),
        "lower-p16-adaptive": (InnerSchedule.adaptive(0.2), 1e-6),
    }

    @staticmethod
    def _case(name):
        p = {"jacobi-p40-sync": 40, "jacobi-p24-async-random": 24}.get(name,
                                                                      16)
        prob = _rounded_grid(p)
        variant = "block_lower_triangular" if name.startswith("lower") \
            else "jacobi"
        m = 2 if name == "jacobi-p16-weighted" else 4
        ms = build_block_splitting(prob.A, Partition.contiguous(prob.n, m),
                                   variant)
        sched, omega = AsyncSchedule(), 1.0
        if name == "jacobi-p24-async-random":
            sched = AsyncSchedule(staleness_bound=3, policy=RandomFair(seed=3))
        if name == "jacobi-p16-weighted":
            w = np.full(prob.n, 0.25)
            ms = MultisplittingSet(ms.splittings,
                                   WeightingScheme((w, 1.0 - w)),
                                   matrix_class=ms.matrix_class)
            omega = 0.9
        return prob, ms, sched, omega

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_every_bit_matches_the_recorded_digest(self, name):
        import hashlib
        prob, ms, sched, omega = self._case(name)
        schedule, tol = self.SCHEDULES.get(name, (InnerSchedule.fixed(4),
                                                  1e-6))
        cfg = SolverConfig(omega=omega, schedule=schedule, outer_tol=tol)
        h = hashlib.sha256()

        def hook(e):
            h.update(repr((e.k, e.reads, e.inner_counts, e.updated)).encode())
            h.update(np.float64(e.update_norm).tobytes())
            for group in (e.starts, e.ys, e.iterates):
                for v in group:
                    h.update(v.tobytes())

        x, rep = solve_async_sim(prob, ms, cfg, sched, on_step=hook)
        fields = _report_fields(rep)
        del fields["omega_bound"]
        h.update(x.tobytes())
        h.update(repr(sorted(fields.items())).encode())
        assert rep.converged
        assert h.hexdigest() == self.DIGESTS[name]
