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
  Each worker solves only the rows that its block depends on (``_cone``).

The synchronous solver is the simulator at staleness 0 with the
all-components policy: ``sync.solve_sync`` calls ``solve_async_sim`` with
``AsyncSchedule()``.

A step ends in the weighted combination omega sum_i E_i y_i + (1 - omega) x
(``_accumulate``, ``_blend``).  Indicator weights need no separate path:
0.0 * y_i and 1.0 * y_i are exact, so the sum takes each block exactly from
its owner.

Stacking.  The simulator groups the processors whose subproblem is an
exact row-local solve (a ``structure`` other than ``general``: one
projected forward sweep, of which the clamp is the one-level case; see
``sublcp.factor_structure``) and whose count is fixed in advance (every
schedule but ``inner_tolerance``, which stops each loop on its own gap):
the processors that share one splitting object form one group, those that
hold their own form one group per count, and every other processor is a
group of one.  A group's pairs to solve run as one inner loop on the
stacked splitting blockdiag(M_i), blockdiag(N_i), whose CSR arrays are the
members' concatenated (``sparse._block_diagonal``), from the concatenated
starts with that many copies of f.  Each stacked row does the arithmetic of
its member's row in the same order, so each slice is bit-identical to the
member's own loop; diagonal and lower-triangular factors mix, since the
sweep gives a diagonal row the clamp's bits.  A shared group's loops
stack copies of one splitting, and in a group of own splittings a new pair
re-solves every member, so every loop's sequence of splittings leads the
group's largest stack: the group builds that stack once and a shorter loop
runs on views of its leading blocks.  Under ``stalest`` reads with d > 0
the ring already holds the iterates that the next d steps read, so a
group's loop also takes their new pairs, and those steps find them solved:
on p = 24 Jacobi, m = 4, d = 3, ``RandomFair``, a run takes about a
quarter as many loops, of four starts each.  A group of one still solves
one pair a step: an ``inner_tolerance`` loop stops on its own gap, and a
``general`` factor's projected Gauss-Seidel would stop on the whole
stack's.  A failing stacked loop names the processor whose slice holds the
first non-finite entry.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .errors import ConvergenceError
from .sublcp import LcpProblem, factor_structure, natural_residual, \
    positive_diagonal
from .splitting import MultisplittingSet, Splitting
from .sparse import SparseMatrix, _block_diagonal, _leading_block, all_finite, \
    as_count
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


def _take(members: list, cover: bool, keys: list, solved: dict) -> list:
    """The members whose pair in ``keys`` no earlier step, group or member
    solved, each marked taken in ``solved``; with ``cover`` (a group of own
    splittings), every member once any has a new pair.  Each new subset of
    splittings would build a new stack and sweep schedule, which costs more
    than the re-solves: on p = 16 block-lower, m = 8, d = 3, stacking only
    the new pairs built 194 stacks instead of one and took twice as long,
    though it solved 44% fewer slots."""
    new = [i for i in members if keys[i] not in solved
           and solved.setdefault(keys[i]) is None]
    return list(members) if new and cover else new


def _stack(whole: list, g: int, stacks: dict, f: np.ndarray):
    """(splitting, forcing vector) for the first ``g`` splittings of
    ``whole``: the first splitting itself with f when g is 1, else the
    leading blocks of the stack blockdiag(M_i), blockdiag(N_i) of all of
    ``whole`` with g copies of f.  The whole stack is built on first use,
    and a shorter one takes views of its arrays, since each stacked row
    reads only its own block's columns; ``stacks`` keeps each by g."""
    if g == 1:
        return whole[0], f
    if len(whole) not in stacks:
        stacks[len(whole)] = (
            Splitting(_block_diagonal([s.M for s in whole]),
                      _block_diagonal([s.N for s in whole])),
            np.tile(f, len(whole)))
    if g not in stacks:
        big, tiled = stacks[len(whole)]
        rows = g * len(f)
        stacks[g] = Splitting(_leading_block(big.M, rows),
                              _leading_block(big.N, rows)), tiled[:rows]
    return stacks[g]


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
    slice of a stacked one.  A group (see the module docstring) runs one
    loop at a step that reads a new pair of its own; under ``stalest``
    reads with d > 0 that loop also takes the group's new pairs of the at
    most d ring slots newer than its read, which steps k + 1 to k + d
    read.  If such a loop fails, the later pairs are unmarked and step k's
    own are solved alone, so an error names the step, processor and inner
    solve that first read the failing start; when loops of several groups
    fail at one step, it names the lowest failing processor.
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
    # under stalest reads with d > 0 every processor reads ring[0], and the
    # next d steps read the newer slots ring[1:]; a loop covers at most
    # this many slots
    reach = min(sched.staleness_bound + 1, cfg.max_outer) \
        if sched.reads == "stalest" else 1
    # exact row-local processors with a count fixed in advance group by
    # shared splitting object, or by count when each holds its own; every
    # other processor is a group of one
    grouped = {}
    for i, (split, count) in enumerate(zip(ms.splittings, counts)):
        key = i
        if cfg.schedule.theta is None and split.structure != "general":
            key = ("shared", split_ids[i]) \
                if split_ids.count(split_ids[i]) > 1 else ("own", count)
        grouped.setdefault(key, []).append(i)
    # each group: its members, whether a new pair re-solves them all,
    # whether its loops look ahead, the splittings of its largest stack
    # (its members' once per slot that a loop covers), which every loop's
    # sequence leads, and the stacks that ``_stack`` keeps
    groups = []
    for key, members in grouped.items():
        exact = isinstance(key, tuple)
        ahead = exact and reach > 1
        whole = [ms.splittings[i] for i in members] * (reach if ahead else 1)
        groups.append((members, exact and key[0] == "own", ahead, whole, {}))
    # (id(splitting), id(start)) -> (start, y, solve count) for each pair
    # solved; holding the start keeps its id from being reused while the
    # entry lasts
    solved = {}

    for k in range(cfg.max_outer):
        reads = _pick_reads(sched, k, m, reads_rng)
        starts = tuple(ring[s - k - 1][i] for i, s in enumerate(reads))
        updated = sched.policy.update_set(k, m, policy_rng)
        keys = list(zip(split_ids, map(id, starts)))
        # (processor, error) of each group whose loop fails at this step
        failed = []
        with np.errstate(over="ignore", invalid="ignore"):
            for members, cover, ahead, whole, stacks in groups:
                reps = _take(members, cover, keys, solved)
                if not reps:
                    continue
                g = len(reps)
                # reps index this step's starts and keys, and under the
                # lookahead each newer slot's after them: rep r is processor
                # r % m of slot r // m
                pool, pool_keys = starts, keys
                if ahead:
                    # the new pairs of each newer slot join this loop, each
                    # slot under the same re-solve rule, so the next steps
                    # find them solved
                    pool, pool_keys = list(starts), list(keys)
                    for slot in islice(ring, 1, None):
                        slot_keys = list(zip(split_ids, map(id, slot)))
                        reps += [len(pool) + i for i in _take(
                            members, cover, slot_keys, solved)]
                        pool += slot
                        pool_keys += slot_keys
                y = None
                while y is None:
                    split, f = _stack(whole, len(reps), stacks, prob.f)
                    y0 = pool[reps[0]] if len(reps) == 1 \
                        else np.concatenate([pool[i] for i in reps])
                    try:
                        y, count = _run_processor_inner(prob, split, f, y0,
                                                        counts[members[0]],
                                                        cfg.schedule.theta)
                    except ConvergenceError as exc:
                        if len(reps) == g:
                            failed.append(
                                (reps[getattr(exc, "index", 0) // n], exc))
                            break
                        # the failure may lie in a later step's slice:
                        # unmark the later pairs (a re-solved pair keeps its
                        # earlier solution) and solve this step's alone, so
                        # that an error names this step
                        for i in reps[g:]:
                            if solved.get(pool_keys[i], 0) is None:
                                del solved[pool_keys[i]]
                        del reps[g:]
                if y is None:
                    continue
                y.setflags(write=False)
                for j, i in enumerate(reps):
                    solved[pool_keys[i]] = (pool[i], y if len(reps) == 1
                                            else y[j * n:(j + 1) * n], count)
            if failed:
                # the lowest failing processor, as one loop per processor
                # in processor order would name it
                i, exc = min(failed, key=lambda fail: fail[0])
                raise ConvergenceError(
                    f"subproblem solve failed at outer step {k}, "
                    f"processor {i}: {exc}") from exc
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
                    if not math.isfinite(change):
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


def _index(idx: np.ndarray):
    """Sorted indices as a slice when they are one range, which numpy reads
    and writes as a view instead of gathering and scattering; else as they
    are."""
    if len(idx) and idx[-1] - idx[0] == len(idx) - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _reach(inside: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> bool:
    """Mark in ``inside`` the columns that the entries (rows, cols) of the
    marked rows read; whether any was new."""
    new = cols[inside[rows] & ~inside[cols]]
    inside[new] = True
    return len(new) > 0


def _restrict(a: SparseMatrix, inside: np.ndarray, read: np.ndarray
              ) -> SparseMatrix:
    """The rows of ``a`` marked ``inside``, on the columns marked ``read``
    (which must hold every column those rows read), renumbered in order:
    each row keeps its entries in stored order."""
    keep = inside[a.entry_rows()]
    offsets = np.zeros(int(inside.sum()) + 1, dtype=np.int64)
    np.cumsum(np.diff(a.row_offsets)[inside], out=offsets[1:])
    pos = np.cumsum(read) - 1
    return SparseMatrix(len(offsets) - 1, int(read.sum()), offsets,
                        pos[a.col_indices[keep]], a.values[keep])


@dataclass(frozen=True)
class _Cone:
    """A worker's splitting restricted to its dependency cone R: the rows
    that its block's rows depend on within one inner loop (``_cone``).

    ``M`` is M_i[R, R] and ``N`` is N_i[R, R + halo], the halo being the
    columns outside R that R's rows of N read; the inner loop reads them,
    and ``structure``, as it reads a ``Splitting``'s.  ``f`` is f[R].
    ``gather`` addresses R + halo in the full vector, ``rows`` R within
    R + halo and ``block`` the worker's block within R, each a slice when
    its indices are one range.
    """

    M: SparseMatrix
    N: SparseMatrix
    structure: str
    f: np.ndarray
    gather: object
    rows: object
    block: object


def _cone(split: Splitting, block: np.ndarray, count: int, f: np.ndarray):
    """The ``_Cone`` of the rows of ``block`` for ``count`` exact solves of
    ``split``, or None when it holds every row.

    After s solves a row's value depends on the start's values at the
    columns that N reads within s hops, and on the same solve's earlier
    rows through M's strictly-lower entries, at no hop.  So R is the rows
    within count - 1 hops of the block in N's graph, closed under M's
    strictly-lower entries (a built-in block-lower factor's never leave the
    block): count solves on R, from the start gathered over R + halo, give
    the block's rows bit for bit, since every row does the arithmetic of
    the full loop's row in the same order, and the rows at hop j are exact
    up to solve count - j (the multisplitting form of restricted additive
    Schwarz; Frommer & Szyld, Numer. Math. 83, 1999).  A ``general``
    factor's projected Gauss-Seidel is not row-local: it takes no cone.
    """
    if split.structure == "general":
        return None
    # the full loop requires every diagonal entry of M to be positive
    positive_diagonal(split.M)
    m_rows, m_cols = split.M.entry_rows(), split.M.col_indices
    lower = m_cols < m_rows
    m_rows, m_cols = m_rows[lower], m_cols[lower]
    n_rows, n_cols = split.N.entry_rows(), split.N.col_indices
    inside = np.zeros(split.n, dtype=bool)
    inside[block] = True
    for hop in range(count):
        # a hop that adds no row leaves the cone where it is
        if hop and not _reach(inside, n_rows, n_cols):
            break
        while _reach(inside, m_rows, m_cols):
            pass
        if inside.all():
            return None
    read = inside.copy()
    _reach(read, n_rows, n_cols)
    cols = np.flatnonzero(read)
    rows = np.flatnonzero(inside)
    in_cols = np.cumsum(read) - 1
    in_rows = np.cumsum(inside) - 1
    m_fac = _restrict(split.M, inside, inside)
    f_cone = f[rows]
    f_cone.setflags(write=False)
    return _Cone(m_fac, _restrict(split.N, inside, read),
                 factor_structure(m_fac), f_cone, _index(cols),
                 _index(in_cols[rows]), _index(in_rows[block]))


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

    A worker's block depends only on the rows of its dependency cone
    (``_cone``), so at its start each worker builds its splitting
    restricted to that cone, and each publication gathers the shared
    iterate over the cone and its halo into a private work vector, runs its
    inner solves on the cone's rows alone, writing each solve's rows back
    in place, and publishes its block, bit for bit the block of the full
    loop from the same read.  A worker keeps the full loop when its factor
    is ``general``, under ``inner_tolerance`` (the gap is over every row)
    and when its cone is every row, as with interleaved blocks.  So an
    overflow is reported only by a worker whose cone holds the overflowing
    row: each row lies in its owner's cone, and a worker whose cone misses
    it never computes it.
    """
    if workers != ms.m:
        raise ValueError("workers must equal the number of splittings")
    if not ms.weighting.is_indicator:
        raise ValueError("threaded execution requires an indicator weighting "
                         "(each worker must own a block to publish)")
    start = time.perf_counter()
    report, x_init, counts = _prologue(prob, ms, cfg, x0)
    m = ms.m
    blocks = ms.weighting.indicator_owners
    owners = [_index(idx) for idx in blocks]
    theta = cfg.schedule.theta
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
        own, split = owners[i], ms.splittings[i]
        block = x_init[own]
        try:
            # an inner_tolerance loop stops on a gap over every row
            cone = None if theta is not None \
                else _cone(split, blocks[i], counts[i], prob.f)
            split, f, rows, take = (split, prob.f, None, own) \
                if cone is None else (cone, cone.f, cone.rows, cone.block)
            while not stop.is_set():
                y0 = published if cone is None \
                    else published[cone.gather].copy()
                y, count = _run_processor_inner(prob, split, f, y0,
                                                counts[i], theta, rows)
                new_block = _blend(y[take], cfg.omega, block)
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
