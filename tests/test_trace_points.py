"""The benchmark's traced run wraps module bindings of the package by name
(``perfbench/tracer.py``, ``layer_bindings``).  These tests run small solves
under those wrappers, so a renamed or dropped binding, or a layer that no
longer calls through it, fails here and not only in the benchmark."""

import sys
from pathlib import Path

import numpy as np

import mslcp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


def traced_names(run) -> set:
    spans = tracer.Tracer()
    with tracer.patched(tracer.layer_bindings(spans, mslcp)):
        run()
    return {span[1] for span in spans.spans}


def set_up(variant: str, m: int):
    prob = mslcp.problems.make_grid_lcp(mslcp.GridLcpSpec(4))
    cls = mslcp.hmatrix.classify(prob.A)
    ms = mslcp.splitting.build_block_splitting(
        prob.A, mslcp.Partition.contiguous(prob.n, m), variant,
        matrix_class=cls)
    cfg = mslcp.SolverConfig(omega=1.0, schedule=mslcp.InnerSchedule.fixed(2),
                             outer_tol=1e-6)
    return prob, ms, cfg


def test_block_lower_sync_solve_and_reference_solve_reach_every_layer():
    def run():
        prob, ms, cfg = set_up("block_lower_triangular", 2)
        mslcp.sync.solve_sync(prob, ms, cfg)
        mslcp.problems.reference_solve(prob)

    assert traced_names(run) >= {
        "problems.make_grid_lcp", "problems.reference_solve",
        "hmatrix.classify", "hmatrix.spectral_radius_nonneg",
        "splitting.build_block_splitting", "splitting.contraction_apply",
        "sparse.spmv", "sparse.solve_lower_triangular",
        "sublcp.solve_sub_lcp.lower_triangular", "sublcp.natural_residual",
        "sync.solve_sync", "asynchronous.solve_async_sim"}


def test_threaded_solve_reaches_its_layers():
    # every publication follows one inner loop of the q = 2 solves; the
    # clamp solves inside it call no traced binding
    spans = tracer.Tracer()
    loop = mslcp.asynchronous._run_processor_inner
    bindings = tracer.layer_bindings(spans, mslcp) + [
        (mslcp.asynchronous, "_run_processor_inner",
         spans.wrap(loop, "sync._run_processor_inner",
                    lambda args, kwargs, result: result[1]))]
    prob, ms, cfg = set_up("jacobi", 2)
    with tracer.patched(bindings):
        _, rep = mslcp.asynchronous.solve_async_threaded(prob, ms, cfg,
                                                         workers=2)
    names = {span[1] for span in spans.spans}
    assert names >= {"asynchronous.solve_async_threaded", "sparse.spmv",
                     "sublcp.natural_residual", "sync._run_processor_inner"}
    counts = [span[7] for span in spans.spans
              if span[1] == "sync._run_processor_inner"]
    # a worker may finish a loop after the run has stopped, unpublished
    assert rep.outer_iterations <= len(counts) <= rep.outer_iterations + 1
    assert set(counts) == {2}


def test_block_lower_sync_solve_of_a_non_z_matrix_sweeps_every_factor():
    # the grid with every strict-lower entry made positive is still H+; its
    # block-lower factors stay lower triangular, so each sub-solve is one
    # projected sweep and the traced run sees no general span
    def run():
        prob, _, cfg = set_up("block_lower_triangular", 2)
        a = prob.A
        lower = a.col_indices < a.entry_rows()
        a = a.same_pattern(np.where(lower, -a.values, a.values))
        ms = mslcp.splitting.build_block_splitting(
            a, mslcp.Partition.contiguous(prob.n, 2), "block_lower_triangular")
        mslcp.sync.solve_sync(mslcp.LcpProblem(a, prob.f), ms, cfg)

    names = traced_names(run)
    assert "sublcp.solve_sub_lcp.lower_triangular" in names
    assert "sublcp.solve_sub_lcp.general" not in names
