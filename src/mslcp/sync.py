"""Synchronous relaxed nonstationary multisplitting: the solver settings,
the inner loop and ``solve_sync``.

One outer step: every processor i starts from the current iterate, performs
its scheduled number of subproblem solves (refreshing the forcing vector
with its newest local iterate each time), and the weighted combination

    x_next = omega * sum_i E_i y_i + (1 - omega) * x

closes the step.  ``solve_sync`` runs it as the asynchronous simulator's
zero-delay case, so the outer step, the grouping of processors into one
inner loop and the combination live in ``asynchronous``.

Every schedule resolves to one inner count per solve and splitting object
(``schedule_inner_count``).  Every solve refreshes the forcing vector
F = f + N y with the raw CSR kernel; the inner loop clamps a ``diagonal``
factor's subproblem itself and calls ``solve_sub_lcp`` for every other
factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, NonFiniteError
from .hmatrix import classify
from .splitting import MAX_INNER_COUNT, MultisplittingSet, min_inner_count
# natural_residual stays bound here because perfbench's tracer patches it
from .sublcp import (LcpProblem, natural_residual, positive_diagonal,
                     solve_sub_lcp)
from .sparse import (all_finite, as_count, as_vector, require_finite, spmv,
                     spmv_unchecked)

SCHEDULE_KINDS = ("fixed", "adaptive", "inner_tolerance")


@dataclass(frozen=True)
class InnerSchedule:
    """How many subproblem solves each processor performs per outer step.

    * ``fixed``: exactly ``q`` solves.
    * ``adaptive``: the smallest s with ||(<M_i>^-1 |N_i|)^s||_inf <= eta
      (``splitting.min_inner_count``), once per splitting object and solve.
    * ``inner_tolerance``: keep solving until the local iterate's
      complementarity gap |y . (A y - f)| falls below ``theta`` (the gap is
      the subproblem measure with the forcing vector refreshed from y
      itself), or ``splitting.MAX_INNER_COUNT`` solves have run.

    ``schedule_inner_count`` turns each kind into the count that the one
    inner loop reads.  ``q`` takes any integer (``numpy.int64`` included)
    and is stored as ``int``; a ``bool`` or ``float`` is rejected.  Only
    ``inner_tolerance`` takes a ``theta``.
    """

    kind: str
    q: int | None = None
    eta: float | None = None
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.q is not None:
            object.__setattr__(self, "q", as_count("q", self.q))
        if self.kind == "fixed" and (self.q is None or self.q < 1):
            raise ValueError("fixed schedule needs q >= 1")
        if self.kind == "adaptive" and not (self.eta is not None and 0.0 < self.eta < 1.0):
            raise ValueError("adaptive schedule needs 0 < eta < 1")
        if self.kind == "inner_tolerance" and not (
                self.theta is not None and 0.0 < self.theta < np.inf):
            raise ValueError(f"inner_tolerance schedule needs a finite "
                             f"theta > 0, got {self.theta}")
        if self.kind != "inner_tolerance" and self.theta is not None:
            raise ValueError("theta applies only to inner_tolerance")

    @staticmethod
    def fixed(q: int) -> "InnerSchedule":
        return InnerSchedule("fixed", q=q)

    @staticmethod
    def adaptive(eta: float) -> "InnerSchedule":
        return InnerSchedule("adaptive", eta=eta)

    @staticmethod
    def inner_tolerance(theta: float) -> "InnerSchedule":
        return InnerSchedule("inner_tolerance", theta=theta)

    def label(self) -> str:
        if self.kind == "fixed":
            return f"fixed:{self.q}"
        if self.kind == "adaptive":
            return f"adaptive:{self.eta:g}"
        return f"innertol:{self.theta:g}"


@dataclass(frozen=True)
class SolverConfig:
    """Outer-iteration controls shared by the solvers.  The subproblems take
    no settings (``sublcp.solve_sub_lcp``)."""

    omega: float = 1.0
    schedule: InnerSchedule = field(default_factory=lambda: InnerSchedule.fixed(1))
    outer_tol: float = 1e-6
    max_outer: int = 200000

    def __post_init__(self):
        if not 0.0 < self.omega < np.inf:
            raise ValueError(f"relaxation parameter must be positive and "
                             f"finite, got {self.omega}")
        if not 0.0 < self.outer_tol < np.inf:
            raise ValueError(f"outer tolerance must be positive and finite, "
                             f"got {self.outer_tol}")
        object.__setattr__(self, "max_outer",
                           as_count("max_outer", self.max_outer))
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
    ran ``inner_counts[i]`` solves ending at ``ys[i]``, a read-only array
    that other processors, or an earlier step, may share
    (``asynchronous.solve_async_sim``).  The streams in ``updated`` (J(k),
    ascending) took the combination, moving by at most ``update_norm``;
    ``iterates`` holds every stream after the step (the synchronous solver
    repeats its one iterate m times).  No solver writes these vectors
    afterwards, so a hook may keep them.
    """

    k: int
    reads: tuple
    starts: tuple
    ys: tuple
    inner_counts: tuple
    updated: tuple
    update_norm: float
    iterates: tuple


def schedule_inner_count(schedule: InnerSchedule, splitting) -> int:
    """The number of inner solves for one splitting: q for ``fixed``, the
    count of ``min_inner_count`` for ``adaptive``, and the cap
    ``MAX_INNER_COUNT`` for ``inner_tolerance``, whose loop also stops once
    the gap |y . (A y - f)| is below ``schedule.theta``."""
    if schedule.kind == "fixed":
        return schedule.q
    if schedule.kind == "adaptive":
        return min_inner_count(splitting, schedule.eta)
    return MAX_INNER_COUNT


def _run_processor_inner(prob: LcpProblem, splitting, f: np.ndarray,
                         y0: np.ndarray, count: int, theta, rows=None):
    """Run one inner loop of ``splitting`` from y0 with the forcing vector
    ``f``; returns (y, solve count).

    The loop stops after ``count`` solves (from ``schedule_inner_count``),
    or earlier once ``theta`` is set and the gap |y . (A y - f)| of
    ``prob`` is below it; no gap is computed after the last solve.

    y0 is checked once.  Each solve computes F = f + N y by
    ``spmv_unchecked``; a ``diagonal`` factor, whose diagonal d must be
    positive, then takes y = max(0, F / d) after one ``all_finite`` test on
    F / d, and any other factor ``solve_sub_lcp``, which checks F.  A
    non-finite F, or a non-finite y at the gap, means the iteration
    diverged: ``ConvergenceError`` names the inner solve and ``x`` when that
    solve's input y is non-finite, else the ``forcing vector``, with
    ``index`` the position of the first non-finite entry there.  So
    a +inf in an entry of y that no row of N reads is recomputed, not an
    error, and a +inf in the last solve's y is returned, for the caller's
    update-norm check.

    With ``rows`` (a slice or sorted indices) the loop runs on a restricted
    splitting (``asynchronous._cone``) whose N has more columns than M has
    rows: y0 is then the caller's private work vector over N's columns,
    each solve but the last writes its result into it at ``rows``, in
    place, and the y returned covers M's rows only.  ``theta`` must then be
    None, since the gap reads every row of A.
    """
    m_fac, n_fac, structure = splitting.M, splitting.N, splitting.structure
    clamp = structure == "diagonal"
    if clamp:
        d = positive_diagonal(m_fac)
    y, f_vec, done = y0, f, 0
    try:
        y = as_vector(y0, n_fac.n_cols, name="x")
        while True:
            f_vec = f + spmv_unchecked(n_fac, y)
            if clamp:
                z = f_vec / d
                if not all_finite(z):
                    require_finite("forcing vector", f_vec)
                new = np.maximum(0.0, z)
            else:
                new = solve_sub_lcp(m_fac, structure, f_vec)
            done += 1
            if done >= count:
                return new, done
            if rows is None:
                y = new
                if theta is not None and abs(
                        float(y @ (spmv(prob.A, y) - prob.f))) < theta:
                    return y, done
            else:
                y[rows] = new
    except NonFiniteError as exc:
        # y is the failing solve's input, f_vec its F
        bad = ~np.isfinite(y)
        name, bad = ("x", bad) if bad.any() \
            else ("forcing vector", ~np.isfinite(f_vec))
        err = ConvergenceError(f"iteration diverged in inner solve "
                               f"{done + 1}: {name} contains non-finite "
                               f"entries")
        err.index = int(np.argmax(bad))
        raise err from exc


def _prologue(prob: LcpProblem, ms: MultisplittingSet, cfg: SolverConfig,
              x0: np.ndarray | None):
    """Setup shared by every solver; returns (report, x, counts) with ``x``
    a read-only copy of ``x0``, or zero when ``x0`` is None, and
    ``counts[i]`` processor i's inner count, resolved once per distinct
    splitting object."""
    if ms.n != prob.n:
        raise ValueError(f"multisplitting size {ms.n} does not match the "
                         f"problem size {prob.n}")
    cls = ms.matrix_class if ms.matrix_class is not None else classify(prob.A)
    bound = 2.0 / (1.0 + cls.jacobi_radius_estimate)
    report = IterationReport(omega_bound=bound,
                             omega_in_range=0.0 < cfg.omega < bound)
    x = np.zeros(prob.n) if x0 is None \
        else as_vector(x0, prob.n, name="x0").copy()
    x.setflags(write=False)
    distinct = {id(s): s for s in ms.splittings}
    resolved = {key: schedule_inner_count(cfg.schedule, s)
                for key, s in distinct.items()}
    return report, x, [resolved[id(s)] for s in ms.splittings]


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
