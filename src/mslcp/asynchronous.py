"""Asynchronous relaxed nonstationary multisplitting, and the outer step
that every solver runs.

Two execution models share the inner loop of ``sync`` and the combination
below:

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

A step ends in the weighted combination omega sum_i E_i y_i + (1 - omega) x
(``_accumulate``, ``_blend``).  Indicator weights need no separate path:
0.0 * y_i and 1.0 * y_i are exact, so the sum takes each block exactly from
its owner.

Stacking.  In the simulator, processors whose subproblem is an exact
row-local solve (a ``structure`` other than ``general``: one projected
forward sweep, of which the clamp is the one-level case; see
``sublcp.factor_structure``) and whose count is fixed in advance (every
schedule but ``inner_tolerance``, which stops each loop on its own gap)
form one group per count; every other processor is a group of one.
Diagonal and lower-triangular factors mix, since the sweep gives a diagonal
row the clamp's bits.  A group's pairs to solve run as one inner loop on the
stacked splitting blockdiag(M_i), blockdiag(N_i), whose CSR arrays are the
members' concatenated (``sparse._block_diagonal``), from the concatenated
starts with that many copies of f.  Each stacked row does the arithmetic of
its member's row in the same order, so each slice is bit-identical to the
member's own loop.  A failing stacked loop names the processor whose slice
holds the first non-finite entry.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ConvergenceError
from .sublcp import LcpProblem, natural_residual
from .splitting import MultisplittingSet, Splitting
from .sparse import _block_diagonal, all_finite, as_count
from .sync import SolverConfig, StepEvent, _prologue, _run_processor_inner

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
        object.__setattr__(self, "period", as_count("period", self.period))
        if self.period < 1:
            raise ValueError("round-robin period must be at least 1")

    def fairness_window(self, m: int) -> int:
        return m * self.period

    def update_set(self, k: int, m: int, rng) -> list:
        return [(k // self.period) % m]


@dataclass(frozen=True)
class RandomFair:
    """Random nonempty component subsets, with a forced full update every
    ``FULL_ROUND_EVERY`` steps so no component starves."""

    seed: int = 0
    FULL_ROUND_EVERY = 8
    # the subset is a bit mask drawn from [1, 1 << m), whose exclusive
    # bound numpy's int64 draw accepts up to 1 << 63
    MAX_M = 63

    def __post_init__(self):
        object.__setattr__(self, "seed", as_count("seed", self.seed))
        if self.seed < 0:
            raise ValueError("random policy seed must be nonnegative")

    def fairness_window(self, m: int) -> int:
        # the simulator asks for the window before step 0
        if m > self.MAX_M:
            raise ValueError(f"the random policy supports at most "
                             f"{self.MAX_M} processors, got {m}")
        return self.FULL_ROUND_EVERY

    def update_set(self, k: int, m: int, rng) -> list:
        if k % self.FULL_ROUND_EVERY == 0:
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
        for name in ("staleness_bound", "reads_seed"):
            object.__setattr__(self, name, as_count(name, getattr(self, name)))
        if self.staleness_bound < 0:
            raise ValueError("staleness bound must be nonnegative")
        if self.reads_seed < 0:
            raise ValueError("reads seed must be nonnegative")
        if self.reads not in READ_RULES:
            raise ValueError(f"unknown read rule {self.reads!r}")


def _pick_reads(sched: AsyncSchedule, k: int, m: int, rng) -> list:
    lo = max(0, k - sched.staleness_bound)
    if sched.reads == "latest":
        return [k] * m
    if sched.reads == "stalest":
        return [lo] * m
    return [int(rng.integers(lo, k + 1)) for _ in range(m)]


def _accumulate(ys, weighting) -> np.ndarray:
    """sum_i E_i y_i with a fixed accumulation order over i, so serial and
    concurrent inner loops produce identical results.

    With an indicator weighting and one finite array y in every ``ys[i]``
    (the synchronous Jacobi solve) the sum is y + 0.0 bit for bit: each
    entry adds one 1.0 * y_j and zeros to 0.0, and the zeros only turn -0.0
    into +0.0.  A y that fails ``all_finite`` takes the loop, so 0.0 * inf =
    nan still reaches the caller's update-norm check."""
    first = ys[0]
    if weighting.is_indicator and all(y is first for y in ys) \
            and all_finite(first):
        return first + 0.0
    acc = np.zeros(weighting.n)
    for w, y in zip(weighting.weights, ys):
        acc += w * y
    return acc


def _blend(acc: np.ndarray, omega: float, x_prev: np.ndarray) -> np.ndarray:
    """omega * acc + (1 - omega) * x_prev, skipping the no-op blend at omega=1."""
    if omega == 1.0:
        return acc
    return omega * acc + (1.0 - omega) * x_prev


def solve_async_sim(prob: LcpProblem, ms: MultisplittingSet, cfg: SolverConfig,
                    sched: AsyncSchedule, x0: np.ndarray | None = None,
                    on_step=None):
    """Deterministic single-threaded replay of the asynchronous iteration;
    returns (x, IterationReport), x the stream with the smallest natural
    residual (ties to the lowest index).

    At step k every processor i reads its own stream at step s_i(k), runs
    its inner solves, and the streams in J(k) take the combination; the
    rest carry forward.  The run has converged once every update over the
    last fairness_window + d steps moved less than ``cfg.outer_tol`` (one
    full fairness round of every stream, and d more steps so that the quiet
    stretch is no artifact of old reads); it stops at ``cfg.max_outer``
    steps.  A non-finite update norm or sub-solve raises
    ``ConvergenceError`` naming the outer step; numpy's over and invalid
    warnings are off inside each step.  ``on_step``, when given, receives a
    ``StepEvent`` after every step.

    Each (splitting object, start array) pair is solved once while its
    start is readable, so every processor with that pair, at this step or
    a later one, gets the same read-only ``ys[i]``: the solved array, or a
    slice of a stacked one.
    """
    start = time.perf_counter()
    report, x_init, counts = _prologue(prob, ms, cfg, x0)
    m = ms.m
    # ring[-1] holds the streams after step k; a read of step s is ring[s - k - 1]
    ring = deque([(x_init,) * m], maxlen=sched.staleness_bound + 1)
    policy_rng = np.random.default_rng(getattr(sched.policy, "seed", 0))
    reads_rng = np.random.default_rng(sched.reads_seed)
    window = sched.policy.fairness_window(m) + sched.staleness_bound
    recent_changes = deque(maxlen=window)

    n = prob.n
    split_ids = tuple(map(id, ms.splittings))
    # exact row-local processors with a count fixed in advance group by
    # count; every other processor is a group of one
    grouped = {}
    for i, (split, count) in enumerate(zip(ms.splittings, counts)):
        exact = cfg.schedule.theta is None and split.structure != "general"
        grouped.setdefault(("count", count) if exact else i, []).append(i)
    # each group, with the lowest member of each of its splitting objects
    # when it has more than one
    groups = []
    for members in grouped.values():
        lowest = tuple({split_ids[i]: i for i in reversed(members)}.values())
        groups.append((members, lowest if len(lowest) > 1 else ()))
    # sequence of splitting ids -> (their stack, that many copies of prob.f)
    stacks = {}
    # (id(splitting), id(start)) -> (start, y, solve count) for each pair
    # solved; holding the start keeps its id from being reused while the
    # entry lasts
    solved = {}

    for k in range(cfg.max_outer):
        reads = _pick_reads(sched, k, m, reads_rng)
        starts = tuple(ring[s - k - 1][i] for i, s in enumerate(reads))
        updated = sched.policy.update_set(k, m, policy_rng)
        keys = list(zip(split_ids, map(id, starts)))
        with np.errstate(over="ignore", invalid="ignore"):
            for members, lowest in groups:
                # the lowest member of each pair that no earlier step, group
                # or member solved (setdefault marks the pair taken)
                reps = [i for i in members if keys[i] not in solved
                        and solved.setdefault(keys[i]) is None]
                if not reps:
                    continue
                # a splitting without a new pair re-solves its lowest
                # member's pair, to the same bits, so that the group's
                # stacks differ only in how many copies of each splitting
                # they hold.  Each new subset of splittings would build a
                # new stack and sweep schedule, which costs more than the
                # re-solves: on p = 16 block-lower, m = 8, d = 3, stacking
                # only the new pairs built 194 stacks instead of one and
                # took twice as long, though it solved 44% fewer slots
                if lowest and len(reps) < len(members):
                    covered = {keys[i][0] for i in reps}
                    reps += [i for i in lowest if keys[i][0] not in covered]
                    reps.sort()
                g = len(reps)
                key = tuple(map(split_ids.__getitem__, reps))
                if key not in stacks:
                    parts = [ms.splittings[i] for i in reps]
                    stacks[key] = (parts[0] if g == 1 else Splitting(
                        _block_diagonal([s.M for s in parts]),
                        _block_diagonal([s.N for s in parts])),
                        np.tile(prob.f, g))
                split, f = stacks[key]
                y0 = starts[reps[0]] if g == 1 \
                    else np.concatenate([starts[i] for i in reps])
                try:
                    y, count = _run_processor_inner(prob, split, f, y0,
                                                    counts[members[0]],
                                                    cfg.schedule.theta)
                except ConvergenceError as exc:
                    i = reps[getattr(exc, "index", 0) // n]
                    raise ConvergenceError(
                        f"subproblem solve failed at outer step {k}, "
                        f"processor {i}: {exc}") from exc
                y.setflags(write=False)
                for j, i in enumerate(reps):
                    solved[keys[i]] = (starts[i], y if g == 1
                                       else y[j * n:(j + 1) * n], count)
            _, ys, inner_counts = zip(*map(solved.__getitem__, keys))
            acc = _accumulate(ys, ms.weighting)
            streams = list(ring[-1])
            # one blend per distinct array (ring[-1] keeps the keys alive)
            blended = {}
            step_delta = 0.0
            for l in updated:
                prev = streams[l]
                if id(prev) not in blended:
                    new = _blend(acc, cfg.omega, prev)
                    change = float(np.maximum.reduce(np.abs(new - prev)))
                    if not np.isfinite(change):
                        raise ConvergenceError(
                            f"iteration diverged at outer step {k}: "
                            f"update norm {change}")
                    new.setflags(write=False)
                    blended[id(prev)] = new
                    step_delta = max(step_delta, change)
                streams[l] = blended[id(prev)]
        recent_changes.append(step_delta)
        ring.append(tuple(streams))
        # each stream slot of the ring gives at most one readable pair, so
        # a map with more entries holds some that no later step can read
        if len(solved) > len(ring) * m:
            live = set(map(id, chain.from_iterable(ring)))
            solved = {key: v for key, v in solved.items() if key[1] in live}
        report.outer_iterations = k + 1
        report.total_inner_iterations += sum(inner_counts)
        if on_step is not None:
            on_step(StepEvent(k, tuple(reads), starts, ys, inner_counts,
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
    inner solves, blend its weighted block and take the block's max-norm
    change, then publish under the lock.  Requires the indicator weighting
    (block ownership is what makes publication local) and ``workers == m``.
    Only worker i writes block i, so the block a worker last published is
    the shared iterate's block i, and the blend and the change need no lock.
    The lock covers the stop test, the finiteness test of the change, the
    swap of the shared iterate for a copy holding the new block, the
    counters and the stop rule.  The run has converged when no worker's last
    publication moved its block by ``cfg.outer_tol`` and the new iterate's
    natural residual is below ``cfg.outer_tol * (1 + ||f||_inf)``; it gives
    up after ``cfg.max_outer * m`` publications.  Once either holds no
    further publication lands, so the returned iterate is the one the rule
    judged.  A non-finite block change never lands: its publisher raises
    ``ConvergenceError`` naming the publication.  numpy's overflow and
    invalid warnings are off in each worker (the state is per thread).
    """
    if workers != ms.m:
        raise ValueError("workers must equal the number of splittings")
    if not ms.weighting.is_indicator:
        raise ValueError("threaded execution requires an indicator weighting "
                         "(each worker must own a block to publish)")
    start = time.perf_counter()
    report, x_init, counts = _prologue(prob, ms, cfg, x0)
    m = ms.m
    # a block of consecutive indices is addressed by a slice, which numpy
    # reads and writes as a view instead of gathering and scattering
    owners = [slice(int(idx[0]), int(idx[-1]) + 1)
              if idx[-1] - idx[0] == len(idx) - 1 else idx
              for idx in ms.weighting.indicator_owners]
    # Readers take the current reference; writers publish a fresh read-only
    # array under the lock, so a read never sees a torn vector.  x_init is
    # already a read-only private copy.
    published = x_init
    lock = threading.Lock()
    stop = threading.Event()
    last_change = [math.inf] * m
    scale = 1.0 + float(np.max(np.abs(prob.f)))
    residual_tol = cfg.outer_tol * scale
    budget = cfg.max_outer * m
    failures: list = []

    @np.errstate(over="ignore", invalid="ignore")
    def worker(i: int):
        nonlocal published
        own = owners[i]
        split = ms.splittings[i]
        block = x_init[own]
        try:
            while not stop.is_set():
                y, count = _run_processor_inner(prob, split, prob.f,
                                                published, counts[i],
                                                cfg.schedule.theta)
                new_block = _blend(y[own], cfg.omega, block)
                change = float(np.maximum.reduce(np.abs(new_block - block)))
                with lock:
                    if stop.is_set():
                        return
                    if not math.isfinite(change):
                        raise ConvergenceError(
                            f"iteration diverged at publication "
                            f"{report.outer_iterations}: update norm {change}")
                    new = published.copy()
                    new[own] = new_block
                    new.setflags(write=False)
                    published = new
                    last_change[i] = change
                    report.outer_iterations += 1
                    report.total_inner_iterations += count
                    quiet = max(last_change) < cfg.outer_tol
                    spent = report.outer_iterations >= budget
                    if quiet or spent:
                        report.final_residual = natural_residual(prob, new)
                        report.converged = (quiet and report.final_residual
                                            < residual_tol)
                        if report.converged or spent:
                            stop.set()
                block = new_block
                # Let the other workers take the interpreter.  Without this
                # yield the p = 32 grid with two workers took 938-4161
                # publications and 1.6-3x the solve time.
                time.sleep(0)
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
