"""Asynchronous relaxed nonstationary multisplitting.

Two execution models share the synchronous module's inner loops and
combination arithmetic:

* ``solve_async_sim`` replays asynchrony deterministically in one thread: a
  bounded-staleness schedule decides which past iterate each processor reads
  (s_i(k), at most ``staleness_bound`` steps old) and which components
  update at step k (the set J(k)); two runs with equal inputs produce
  bit-identical iterate sequences.
* ``solve_async_threaded`` runs one OS thread per processor against a shared
  published iterate; reads may be stale but always see a complete published
  version.  Run-to-run iterate sequences are not reproducible, the limit is.

The synchronous solver is the simulator at staleness 0 with the
all-components policy: ``sync.solve_sync`` calls ``solve_async_sim`` with
``AsyncSchedule()``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .sublcp import LcpProblem, natural_residual
from .splitting import MultisplittingSet
from .sync import (SolverConfig, StepEvent, _accumulate, _blend, _count,
                   _processor_groups, _prologue, _run_processor_inner)

READ_RULES = ("latest", "stalest", "uniform")


@dataclass(frozen=True)
class AllEveryStep:
    """Every component updates at every step."""

    def fairness_window(self, m: int) -> int:
        return 1

    def update_set(self, k: int, m: int, rng) -> list:
        return list(range(m))


@dataclass(frozen=True)
class RoundRobin:
    """One component at a time, holding each for ``period`` consecutive steps."""

    period: int = 1

    def __post_init__(self):
        object.__setattr__(self, "period", _count("period", self.period))
        if self.period < 1:
            raise ValueError("round-robin period must be at least 1")

    def fairness_window(self, m: int) -> int:
        return m * self.period

    def update_set(self, k: int, m: int, rng) -> list:
        return [(k // self.period) % m]


@dataclass(frozen=True)
class RandomFair:
    """Random nonempty component subsets, with a forced full update every
    ``full_round_every`` steps so no component starves."""

    seed: int = 0
    full_round_every: int = 8
    # the subset is a bit mask drawn from [1, 1 << m), whose exclusive
    # bound numpy's int64 draw accepts up to 1 << 63
    MAX_M = 63

    def __post_init__(self):
        object.__setattr__(self, "full_round_every",
                           _count("full_round_every", self.full_round_every))
        if self.full_round_every < 1:
            raise ValueError("full_round_every must be at least 1")

    def fairness_window(self, m: int) -> int:
        # the simulator asks for the window before step 0
        if m > self.MAX_M:
            raise ValueError(f"the random policy supports at most "
                             f"{self.MAX_M} processors, got {m}")
        return self.full_round_every

    def update_set(self, k: int, m: int, rng) -> list:
        if k % self.full_round_every == 0:
            return list(range(m))
        mask = int(rng.integers(1, 1 << m))
        return [l for l in range(m) if (mask >> l) & 1]


@dataclass(frozen=True)
class AsyncSchedule:
    """Bounded-staleness read/update plan for the simulator.

    ``staleness_bound`` d caps how old a read may be: s_i(k) always lies in
    [max(0, k - d), k].  ``reads`` picks within that window: ``latest`` (k),
    ``stalest`` (k - d), or ``uniform`` (seeded draw per processor).  The
    update policy generates J(k); all three built-ins hit every component
    within a bounded window, so every component updates infinitely often.
    """

    staleness_bound: int = 0
    policy: object = field(default_factory=AllEveryStep)
    reads: str = "stalest"
    reads_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "staleness_bound",
                           _count("staleness_bound", self.staleness_bound))
        if self.staleness_bound < 0:
            raise ValueError("staleness bound must be nonnegative")
        if self.reads not in READ_RULES:
            raise ValueError(f"unknown read rule {self.reads!r}")


def _pick_reads(sched: AsyncSchedule, k: int, m: int, rng) -> list:
    lo = max(0, k - sched.staleness_bound)
    if sched.reads == "latest":
        return [k] * m
    if sched.reads == "stalest":
        return [lo] * m
    return [int(rng.integers(lo, k + 1)) for _ in range(m)]


def solve_async_sim(prob: LcpProblem, ms: MultisplittingSet, cfg: SolverConfig,
                    sched: AsyncSchedule, x0: np.ndarray | None = None,
                    on_step=None):
    """Deterministic single-threaded replay of the asynchronous iteration.

    At step k every processor i reads its own stream at step s_i(k), runs its
    scheduled subproblem solves, and the components in J(k) blend the
    weighted combination into their stream; the rest copy forward.  Stops
    once every update over a trailing window of fairness_window + d steps
    moved less than ``cfg.outer_tol`` (the window covers one full fairness
    round of every stream, and the extra d steps ensure the quiet stretch
    cannot be an artifact of reads older than the window), or at
    ``cfg.max_outer``.  A non-finite update norm means the iteration
    diverged; it is raised as ``ConvergenceError`` naming the outer step.

    The processors of a ``sync._processor_groups`` group run as one inner
    loop.  At each step, members with the same splitting object and the same
    start array (``is``) would compute the same y, so each folds onto the
    lowest such member; only these representatives' starts are stacked and
    solved.  ``ys[i]`` in a ``StepEvent`` is a read-only slice of the
    stacked iterate at processor i's representative, or, when the group has
    one representative, the read-only solved array itself, which then runs
    from that start with no stacked copy.  So in the synchronous Jacobi
    solve (one shared splitting, one start) every processor's ``ys`` is the
    same array.  The solve keeps its own state: the inner bounds of each
    splitting object, and for each sequence of splitting objects its stack
    (``MultisplittingSet.stacked``) and that many copies of f.

    Returns (x, IterationReport) where x is the stream with the smallest
    natural residual (ties to the lowest index).
    """
    start = time.perf_counter()
    report, x_init, bounds = _prologue(prob, ms, cfg, x0)
    m = ms.m
    # ring[-1] holds the streams after step k; a read of step s is ring[s - k - 1]
    ring = deque([(x_init,) * m], maxlen=sched.staleness_bound + 1)
    policy_rng = np.random.default_rng(getattr(sched.policy, "seed", 0))
    reads_rng = np.random.default_rng(sched.reads_seed)
    window = sched.policy.fairness_window(m) + sched.staleness_bound
    recent_changes = deque(maxlen=window)

    n = prob.n
    groups = _processor_groups(ms, bounds)
    # sequence of splitting ids -> (their stack, that many copies of prob.f)
    stacks = {}

    for k in range(cfg.max_outer):
        reads = _pick_reads(sched, k, m, reads_rng)
        starts = tuple(ring[s - k - 1][i] for i, s in enumerate(reads))
        ys, counts = [None] * m, [0] * m
        for members in groups:
            # members with the same splitting and start compute the same y:
            # each folds onto the lowest such member, its representative
            reps, slot, at = [], {}, []
            for i in members:
                key = (id(ms.splittings[i]), id(starts[i]))
                if key not in slot:
                    slot[key] = len(reps)
                    reps.append(i)
                at.append(slot[key])
            g = len(reps)
            key = tuple(id(ms.splittings[i]) for i in reps)
            if key not in stacks:
                stacks[key] = (ms.stacked(tuple(reps)), np.tile(prob.f, g))
            split, f = stacks[key]
            y0 = starts[reps[0]] if g == 1 \
                else np.concatenate([starts[i] for i in reps])
            try:
                y, count = _run_processor_inner(prob, split, f, y0,
                                                bounds[members[0]],
                                                cfg.schedule.theta,
                                                cfg.sub_iter_tol,
                                                cfg.sub_max_iters)
            except ConvergenceError as exc:
                i = reps[getattr(exc, "member", 0)]
                raise ConvergenceError(
                    f"subproblem solve failed at outer step {k}, "
                    f"processor {i}: {exc}") from exc
            y.setflags(write=False)
            for i, j in zip(members, at):
                ys[i] = y if g == 1 else y[j * n:(j + 1) * n]
                counts[i] = count
        acc = _accumulate(ys, ms.weighting)
        updated = sched.policy.update_set(k, m, policy_rng)
        streams = list(ring[-1])
        # one blend per distinct array; ring[-1] keeps the keyed arrays alive
        blended = {}
        step_delta = 0.0
        for l in updated:
            prev = streams[l]
            if id(prev) not in blended:
                new = _blend(acc, cfg.omega, prev)
                change = float(np.max(np.abs(new - prev)))
                if not np.isfinite(change):
                    raise ConvergenceError(
                        f"iteration diverged at outer step {k}: update norm "
                        f"{change}")
                new.setflags(write=False)
                blended[id(prev)] = new
                step_delta = max(step_delta, change)
            streams[l] = blended[id(prev)]
        recent_changes.append(step_delta)
        ring.append(tuple(streams))
        report.outer_iterations = k + 1
        report.total_inner_iterations += sum(counts)
        if on_step is not None:
            on_step(StepEvent(k, tuple(reads), starts, tuple(ys), tuple(counts),
                              tuple(sorted(updated)), step_delta, ring[-1]))
        if len(recent_changes) == window and max(recent_changes) < cfg.outer_tol:
            report.converged = True
            break

    distinct = list({id(xl): xl for xl in ring[-1]}.values())
    residuals = [natural_residual(prob, xl) for xl in distinct]
    best = int(np.argmin(residuals))
    report.final_residual = residuals[best]
    report.wall_time_seconds = time.perf_counter() - start
    return distinct[best], report


def solve_async_threaded(prob: LcpProblem, ms: MultisplittingSet,
                         cfg: SolverConfig, workers: int,
                         x0: np.ndarray | None = None):
    """Genuinely concurrent asynchronous solve with one thread per processor.

    Each worker loops: snapshot the shared iterate (possibly stale), run its
    inner solves, then publish its weighted block under the lock.  Requires
    the indicator weighting (block ownership is what makes publication local)
    and ``workers == m``.  The publishing worker tests the stop rule under
    the same lock: the run has converged when no worker's last publication
    moved its block by ``cfg.outer_tol`` and the new iterate's natural
    residual is below ``cfg.outer_tol * (1 + ||f||_inf)``; it gives up after
    ``cfg.max_outer * m`` publications.  Once either holds no further
    publication lands, so the returned iterate is the one the rule judged.
    """
    if workers != ms.m:
        raise ValueError("workers must equal the number of splittings")
    if not ms.weighting.is_indicator:
        raise ValueError("threaded execution requires an indicator weighting "
                         "(each worker must own a block to publish)")
    start = time.perf_counter()
    report, x_init, bounds = _prologue(prob, ms, cfg, x0)
    m = ms.m
    owners = ms.weighting.indicator_owners
    # Readers take the current reference; writers publish a fresh read-only
    # array under the lock, so a read never sees a torn vector.  x_init is
    # already a read-only private copy.
    published = x_init
    lock = threading.Lock()
    stop = threading.Event()
    last_change = np.full(m, np.inf)
    scale = 1.0 + float(np.max(np.abs(prob.f)))
    residual_tol = cfg.outer_tol * scale
    budget = cfg.max_outer * m
    failures: list = []

    def worker(i: int):
        nonlocal published
        idx = owners[i]
        split = ms.splittings[i]
        try:
            while not stop.is_set():
                y, count = _run_processor_inner(prob, split, prob.f,
                                                published, bounds[i],
                                                cfg.schedule.theta,
                                                cfg.sub_iter_tol,
                                                cfg.sub_max_iters)
                with lock:
                    if stop.is_set():
                        return
                    cur = published
                    new = cur.copy()
                    new[idx] = _blend(y[idx], cfg.omega, cur[idx])
                    last_change[i] = float(np.max(np.abs(new[idx] - cur[idx])))
                    new.setflags(write=False)
                    published = new
                    report.outer_iterations += 1
                    report.total_inner_iterations += count
                    quiet = bool(np.all(last_change < cfg.outer_tol))
                    spent = report.outer_iterations >= budget
                    if quiet or spent:
                        report.final_residual = natural_residual(prob, new)
                        report.converged = (quiet and report.final_residual
                                            < residual_tol)
                        if report.converged or spent:
                            stop.set()
                time.sleep(0)  # let the other workers take the interpreter
        except Exception as exc:  # re-raised by the caller with context
            failures.append((i, exc))
            stop.set()

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(m)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        i, exc = failures[0]
        raise RuntimeError(f"async worker for processor {i} failed: {exc}") from exc

    report.wall_time_seconds = time.perf_counter() - start
    return published, report
