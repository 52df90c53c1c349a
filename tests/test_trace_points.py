"""The benchmark's traced run wraps module bindings of the package by name
(``perfbench/tracer.py``, ``layer_bindings``).  These tests run small solves
under those wrappers, so a renamed or dropped binding, or a layer that no
longer calls through it, fails here and not only in the benchmark."""

import sys
from pathlib import Path

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
    def run():
        prob, ms, cfg = set_up("jacobi", 2)
        mslcp.asynchronous.solve_async_threaded(prob, ms, cfg, workers=2)

    assert traced_names(run) >= {
        "asynchronous.solve_async_threaded", "sparse.spmv",
        "sublcp.solve_sub_lcp.diagonal", "sublcp.natural_residual"}
