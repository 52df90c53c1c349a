"""Outside-in span tracing of the package's layers for the benchmark.

``patched(layer_bindings(tracer, mslcp))`` replaces, for the duration of a
``with`` block, the module attributes through which the package's modules
call each other (for example ``mslcp.sync.spmv`` or
``mslcp.splitting.solve_lower_triangular``) with wrappers that record one
span per call.  The package itself is not
changed: the wrappers sit on the bindings the callers look up at call time.
The original bindings are restored when the block ends, also when a call
inside it raises.

A span is (id, name, start, end, parent id, thread id, instance id,
measure).  Parents are tracked per thread, so spans recorded by the
threaded executor's workers are the roots of their own threads' trees.
"""

from __future__ import annotations

import csv
import itertools
import threading
import time
from contextlib import contextmanager

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "thread", "instance",
               "measure")


class Tracer:
    """In-memory span store shared by every wrapper of one traced run."""

    def __init__(self):
        self.spans = []
        self.instance = -1
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, name, measure=None):
        """Wrapper around ``fn`` recording a span per call.

        ``name`` is a string or a callable ``(args, kwargs) -> str``;
        ``measure`` is an optional ``(args, kwargs, result) -> value`` stored
        with the span (None when the call raised).
        """
        def traced_call(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            with self._lock:
                sid = next(self._ids)
            parent = stack[-1] if stack else None
            label = name(args, kwargs) if callable(name) else name
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                value = None if measure is None or result is None \
                    else measure(args, kwargs, result)
                span = (sid, label, start, end, parent, threading.get_ident(),
                        self.instance, value)
                with self._lock:
                    self.spans.append(span)

        traced_call.__wrapped__ = fn
        return traced_call

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SPAN_FIELDS)
            writer.writerows(self.spans)


@contextmanager
def patched(bindings):
    """Set each ``(owner, attribute, replacement)`` for the block and put
    the original values back afterwards, in reverse order."""
    saved = []
    try:
        for owner, attr, replacement in bindings:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _spmv_measure(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    # values, column indices and the gathered x entries per stored entry,
    # plus the row offsets and the output vector
    per_entry = a.values.itemsize + a.col_indices.itemsize + result.itemsize
    return (a.nnz, a.nnz * per_entry + a.row_offsets.nbytes + result.nbytes)


def _sub_lcp_name(args, kwargs):
    structure = args[1] if len(args) > 1 else kwargs["structure"]
    return f"sublcp.solve_sub_lcp.{structure}"


def layer_bindings(tracer: Tracer, mslcp):
    """Every binding the traced run replaces: (owner, attribute, wrapper).

    Each entry names the module whose global the caller reads, so a call is
    seen however it is reached.  Names follow ``<defining module>.<function>``.
    """
    problems, hmatrix, splitting = mslcp.problems, mslcp.hmatrix, mslcp.splitting
    sublcp, sync, asynchronous = mslcp.sublcp, mslcp.sync, mslcp.asynchronous
    sparse = mslcp.sparse
    out = []

    def add(owners, attr, name, measure=None, source=None):
        fn = getattr(source, attr)
        for owner in owners:
            out.append((owner, attr, tracer.wrap(fn, name, measure)))

    add([problems], "make_grid_lcp", "problems.make_grid_lcp", source=problems)
    add([problems], "reference_solve", "problems.reference_solve",
        source=problems)
    add([hmatrix, splitting, sync], "classify", "hmatrix.classify",
        source=hmatrix)
    add([hmatrix, splitting], "spectral_radius_nonneg",
        "hmatrix.spectral_radius_nonneg",
        lambda args, kwargs, est: est.iterations, source=hmatrix)
    add([splitting], "build_block_splitting", "splitting.build_block_splitting",
        source=splitting)
    add([sync, sublcp, hmatrix, splitting, problems], "spmv", "sparse.spmv",
        _spmv_measure, source=sparse)
    add([splitting], "solve_lower_triangular", "sparse.solve_lower_triangular",
        source=sparse)
    add([sync], "solve_sub_lcp", _sub_lcp_name, source=sublcp)
    add([problems, sublcp], "projected_gauss_seidel",
        "sublcp.projected_gauss_seidel",
        lambda args, kwargs, result: result[1], source=sublcp)
    add([sync, asynchronous, problems], "natural_residual",
        "sublcp.natural_residual", source=sublcp)
    add([sync], "solve_sync", "sync.solve_sync", source=sync)
    add([asynchronous], "solve_async_sim", "asynchronous.solve_async_sim",
        source=asynchronous)
    add([asynchronous], "solve_async_threaded",
        "asynchronous.solve_async_threaded", source=asynchronous)
    op = splitting.ContractionOperator
    out.append((op, "__call__",
                tracer.wrap(op.__call__, "splitting.contraction_apply")))
    return out


class CountingPolicy:
    """Update policy that forwards to another and counts |J(k)| per step."""

    def __init__(self, inner):
        self.inner = inner
        self.seed = getattr(inner, "seed", 0)
        self.updates = 0
        self.slots = 0

    def fairness_window(self, m: int) -> int:
        return self.inner.fairness_window(m)

    def update_set(self, k: int, m: int, rng) -> list:
        chosen = self.inner.update_set(k, m, rng)
        self.updates += len(chosen)
        self.slots += m
        return chosen


def summarize(spans, main_thread: int) -> dict:
    """Per-name totals over ``spans``: calls, inclusive and self seconds,
    the sum of the numeric measures, seconds of root spans on threads other
    than ``main_thread``, and call counts by the parent span's name."""
    child_time = {}
    names = {}
    for sid, name, start, end, parent, *_ in spans:
        names[sid] = name
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals = {}
    for sid, name, start, end, parent, thread, _inst, measure in spans:
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "measure": None, "worker_root_s": 0.0,
                                     "calls_by_parent": {}})
        dur = end - start
        t["calls"] += 1
        t["s"] += dur
        t["self_s"] += dur - child_time.get(sid, 0.0)
        if measure is not None:
            if isinstance(measure, tuple):
                prev = t["measure"] or (0,) * len(measure)
                t["measure"] = tuple(p + v for p, v in zip(prev, measure))
            else:
                t["measure"] = (t["measure"] or 0) + measure
        if thread != main_thread and parent is None:
            t["worker_root_s"] += dur
        by_parent = t["calls_by_parent"]
        pname = names.get(parent)
        by_parent[pname] = by_parent.get(pname, 0) + 1
    return totals
