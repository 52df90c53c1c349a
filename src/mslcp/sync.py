"""Synchronous relaxed nonstationary multisplitting iteration.

One outer step: every processor i starts from the current iterate, performs
its scheduled number of subproblem solves (refreshing the forcing vector
with its newest local iterate each time), and the weighted combination

    x_next = omega * sum_i E_i y_i + (1 - omega) * x

closes the step.  With indicator weights the combination only reads block i
of processor i's result, which is implemented as masked accumulation.

``solve_sync`` runs this as the asynchronous simulator's zero-delay case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, NonFiniteError
from .hmatrix import classify
from .splitting import MultisplittingSet, min_inner_count
# natural_residual stays bound here because perfbench's tracer patches it
from .sublcp import LcpProblem, natural_residual, solve_sub_lcp
from .sparse import as_vector, spmv

SCHEDULE_KINDS = ("fixed", "adaptive", "inner_tolerance")


@dataclass(frozen=True)
class InnerSchedule:
    """How many subproblem solves each processor performs per outer step.

    * ``fixed``: exactly ``q`` solves.
    * ``adaptive``: the smallest count s with ||(<M_i>^-1 |N_i|)^s||_inf <= eta,
      floored at ``min_count``; computed once per processor and cached.
    * ``inner_tolerance``: keep solving until the local iterate's
      complementarity gap |y . (A y - f)| falls below ``theta`` (the gap is
      the subproblem measure with the forcing vector refreshed from y
      itself), or ``max_count`` is hit.  At least ``min_count`` solves run.
    """

    kind: str
    q: int | None = None
    eta: float | None = None
    theta: float | None = None
    min_count: int = 1
    max_count: int = 100000

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.min_count < 1 or self.max_count < self.min_count:
            raise ValueError("need 1 <= min_count <= max_count")
        if self.kind == "fixed" and (self.q is None or self.q < 1):
            raise ValueError("fixed schedule needs q >= 1")
        if self.kind == "adaptive" and not (self.eta is not None and 0.0 < self.eta < 1.0):
            raise ValueError("adaptive schedule needs 0 < eta < 1")
        if self.kind == "inner_tolerance" and (self.theta is None or self.theta <= 0.0):
            raise ValueError("inner_tolerance schedule needs theta > 0")

    @staticmethod
    def fixed(q: int, **kw) -> "InnerSchedule":
        return InnerSchedule("fixed", q=q, **kw)

    @staticmethod
    def adaptive(eta: float, **kw) -> "InnerSchedule":
        return InnerSchedule("adaptive", eta=eta, **kw)

    @staticmethod
    def inner_tolerance(theta: float, **kw) -> "InnerSchedule":
        return InnerSchedule("inner_tolerance", theta=theta, **kw)

    def label(self) -> str:
        if self.kind == "fixed":
            return f"fixed:{self.q}"
        if self.kind == "adaptive":
            return f"adaptive:{self.eta:g}"
        return f"innertol:{self.theta:g}"


@dataclass(frozen=True)
class SolverConfig:
    """Outer-iteration controls shared by the solvers."""

    omega: float = 1.0
    schedule: InnerSchedule = field(default_factory=lambda: InnerSchedule.fixed(1))
    outer_tol: float = 1e-6
    max_outer: int = 200000
    sub_iter_tol: float = 1e-12
    sub_max_iters: int = 200000

    def __post_init__(self):
        if self.omega <= 0.0:
            raise ValueError("relaxation parameter must be positive")
        if self.outer_tol <= 0.0:
            raise ValueError("outer tolerance must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")


@dataclass
class IterationReport:
    """Per-run outcome; per-step detail comes from the ``on_step`` hook.

    ``omega_bound`` is 2 / (1 + gamma) for the estimated Jacobi radius gamma
    of the problem matrix; ``omega_in_range`` records whether the configured
    relaxation lies inside (0, omega_bound), the range the convergence
    theory covers.
    """

    outer_iterations: int = 0
    converged: bool = False
    final_residual: float = float("nan")
    total_inner_iterations: int = 0
    omega_bound: float = float("nan")
    omega_in_range: bool = True
    wall_time_seconds: float = 0.0


@dataclass(frozen=True)
class StepEvent:
    """One outer step k, passed to a solver's ``on_step`` hook.

    Processor i read step ``reads[i]`` = s_i(k), getting ``starts[i]``, and
    ran ``inner_counts[i]`` solves ending at ``ys[i]``.  The streams in
    ``updated`` (J(k), ascending) took the combination, moving by at most
    ``update_norm``; ``iterates`` holds every stream after the step (the
    synchronous solver repeats its one iterate m times).  No solver writes
    these vectors afterwards, so a hook may keep them.
    """

    k: int
    reads: tuple
    starts: tuple
    ys: tuple
    inner_counts: tuple
    updated: tuple
    update_norm: float
    iterates: tuple


def schedule_inner_count(schedule: InnerSchedule, splitting_index: int,
                         ms: MultisplittingSet):
    """Resolve the inner-solve count for one processor.

    Returns an int for ``fixed``/``adaptive`` (the adaptive count is cached
    on the multisplitting set), or a stop predicate ``(count, gap) -> bool``
    for ``inner_tolerance``.
    """
    if schedule.kind == "fixed":
        return schedule.q
    if schedule.kind == "adaptive":
        cache = ms._caches.setdefault("adaptive_counts", {})
        key = (splitting_index, schedule.eta, schedule.min_count, schedule.max_count)
        if key not in cache:
            s = min_inner_count(ms.splittings[splitting_index], schedule.eta,
                                max_s=schedule.max_count,
                                operator=ms.contraction_operator(splitting_index))
            cache[key] = max(schedule.min_count, s)
        return cache[key]

    theta, lo, hi = schedule.theta, schedule.min_count, schedule.max_count

    def stop(count: int, gap: float) -> bool:
        return count >= lo and (gap < theta or count >= hi)

    return stop


def _run_processor_inner(prob: LcpProblem, splitting, y0: np.ndarray,
                         resolved, sub_iter_tol: float,
                         sub_max_iters: int = 200000):
    """Run one processor's inner loop from y0; returns (y, solve count).

    ``resolved`` is either an int count (at least 1) or a stop predicate from
    ``schedule_inner_count``.  Each solve refreshes the forcing vector from
    the newest local iterate: F = f + N y.  A non-finite y or F means the
    iteration diverged; it is raised as ``ConvergenceError`` naming the
    inner solve.
    """
    y, count = y0, 0
    try:
        while True:
            f_vec = prob.f + spmv(splitting.N, y)
            y = solve_sub_lcp(splitting.M, splitting.structure, f_vec,
                              iter_tol=sub_iter_tol, max_iters=sub_max_iters)
            count += 1
            if isinstance(resolved, int):
                done = count >= resolved
            else:
                gap = abs(float(y @ (spmv(prob.A, y) - prob.f)))
                done = resolved(count, gap)
            if done:
                return y, count
    except NonFiniteError as exc:
        raise ConvergenceError(
            f"iteration diverged in inner solve {count + 1}: {exc}") from exc


def _accumulate(ys, weighting) -> np.ndarray:
    """sum_i E_i y_i with a fixed accumulation order over i, so serial and
    concurrent inner loops produce identical results.  Indicator weightings
    copy block i from y_i (masked accumulation)."""
    owners = weighting.indicator_owners
    if owners is not None:
        acc = np.empty(weighting.n)
        for i, idx in enumerate(owners):
            acc[idx] = ys[i][idx]
    else:
        acc = np.zeros(weighting.n)
        for i, w in enumerate(weighting.weights):
            acc += w * ys[i]
    return acc


def _blend(acc: np.ndarray, omega: float, x_prev: np.ndarray) -> np.ndarray:
    """omega * acc + (1 - omega) * x_prev, skipping the no-op blend at omega=1."""
    if omega == 1.0:
        return acc
    return omega * acc + (1.0 - omega) * x_prev


def _prologue(prob: LcpProblem, ms: MultisplittingSet, cfg: SolverConfig,
              x0: np.ndarray | None):
    """Setup shared by every solver; returns (report, x, resolved counts)
    with ``x`` a read-only copy of ``x0``, or zero when ``x0`` is None."""
    if ms.n != prob.n:
        raise ValueError("multisplitting size does not match the problem")
    cls = ms.matrix_class if ms.matrix_class is not None else classify(prob.A)
    bound = 2.0 / (1.0 + cls.jacobi_radius_estimate)
    report = IterationReport(omega_bound=bound,
                             omega_in_range=0.0 < cfg.omega < bound)
    x = np.zeros(prob.n) if x0 is None \
        else as_vector(x0, prob.n, name="x0").copy()
    x.setflags(write=False)
    resolved = [schedule_inner_count(cfg.schedule, i, ms) for i in range(ms.m)]
    return report, x, resolved


def solve_sync(prob: LcpProblem, ms: MultisplittingSet, cfg: SolverConfig,
               x0: np.ndarray | None = None, on_step=None):
    """Synchronous multisplitting solve; returns (x, IterationReport).

    Starts from zero (feasible and reproducible) unless ``x0`` is given.
    Stops when ``||x_next - x||_inf < cfg.outer_tol`` or ``cfg.max_outer``
    outer steps have run; the report carries the final natural residual
    either way.  ``on_step(event)`` receives a ``StepEvent`` after every
    combination when provided (observability hook; no effect on iterates).
    This is the simulator with no delay (``AsyncSchedule()``).
    """
    # a local import: the simulator imports this module
    from .asynchronous import AsyncSchedule, solve_async_sim
    return solve_async_sim(prob, ms, cfg, AsyncSchedule(), x0, on_step)
