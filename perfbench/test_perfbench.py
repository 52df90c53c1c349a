"""Tests of the benchmark's own parts: the oracle, the tracer and one tiny
run of each kind.

    python -m pytest -q perfbench
"""

import sys
import threading
import types

import numpy as np
import pytest

import calibrate
import oracle
import run
import tracer

mslcp = run.load_program()


def noisy_grid(p, seed):
    base = mslcp.make_grid_lcp(mslcp.GridLcpSpec(p))
    return mslcp.LcpProblem(base.A, base.f + run.instance_noise(seed, 2, 0,
                                                                base.n))


def random_m_matrix_lcp(rng, n):
    a = -rng.uniform(0.1, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, 1.2 * np.maximum(-a.sum(axis=1), 0.5))
    return mslcp.LcpProblem(mslcp.SparseMatrix.from_dense(a),
                            rng.standard_normal(n))


def oracle_x(prob):
    x, _ = oracle.active_set_solve(oracle.to_csr(prob.A), np.array(prob.f))
    return x


@pytest.mark.parametrize("p,seed", [(2, 0), (3, 0), (3, 1), (4, 0), (4, 1)])
def test_oracle_matches_brute_force_on_grids(p, seed):
    prob = noisy_grid(p, seed)
    np.testing.assert_allclose(oracle_x(prob), mslcp.brute_force_lcp(prob),
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_oracle_matches_brute_force_on_random_m_matrices(seed):
    rng = np.random.default_rng(seed)
    prob = random_m_matrix_lcp(rng, int(rng.integers(3, 13)))
    np.testing.assert_allclose(oracle_x(prob), mslcp.brute_force_lcp(prob),
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("seed", [0, 1])
def test_oracle_matches_reference_solve_at_p16(seed):
    prob = noisy_grid(16, seed)
    ref = mslcp.reference_solve(prob)
    assert np.max(np.abs(oracle_x(prob) - ref.x)) <= 1e-7


def test_oracle_refuses_an_unsettled_active_set():
    prob = noisy_grid(8, 0)
    with pytest.raises(oracle.OracleError):
        oracle.active_set_solve(oracle.to_csr(prob.A), np.array(prob.f),
                                max_steps=1)


def test_wrappers_record_every_span_from_many_threads():
    spans = tracer.Tracer()
    inner = spans.wrap(lambda v: v + 1, "inner")
    outer = spans.wrap(lambda v: inner(v) * 2, "outer")
    threads, calls = 4, 2000
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: [outer(i)
                                                    for i in range(calls)])
                   for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(old)
    assert len(spans.spans) == 2 * threads * calls
    assert len({s[0] for s in spans.spans}) == len(spans.spans)
    by_id = {s[0]: s for s in spans.spans}
    for sid, name, _start, _end, parent, thread, *_ in spans.spans:
        if name == "inner":
            assert by_id[parent][1] == "outer"
            assert by_id[parent][5] == thread
        else:
            assert parent is None


def test_bindings_restored_when_a_call_fails():
    def broken(v):
        raise ValueError("boom")

    owner = types.SimpleNamespace(fn=broken)
    spans = tracer.Tracer()
    with pytest.raises(ValueError):
        with tracer.patched([(owner, "fn", spans.wrap(broken, "fn"))]):
            owner.fn(1)
    assert owner.fn is broken
    assert [s[1] for s in spans.spans] == ["fn"]


def test_layer_bindings_restored_after_the_block():
    bindings = tracer.layer_bindings(tracer.Tracer(), mslcp)
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in bindings]
    with pytest.raises(RuntimeError):
        with tracer.patched(bindings):
            assert mslcp.sync.spmv is not mslcp.sparse.spmv
            raise RuntimeError("leave the block")
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original


TINY = dict(p=8, m=2, variant="block_lower_triangular", mode="sync",
            instances=2, reference_per_instance=True)


def test_timed_run_reports_every_end_to_end_metric(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    cal = calibrate.Calibrator()
    records, metrics, samples, checks = run.timed_run(
        run.Workload(mslcp, "tiny", 5, cal=cal), seconds=0.0)
    assert len(records) == 2 and all(r["passed"] for r in records)
    assert set(metrics) == set(run.E2E_UNITS) and all(checks.values())
    assert samples["outer_iters"] == 2
    # warm-up and two instances, four samples each: before set-up, between
    # set-up and solve, after the solve, after reference_solve
    assert len(cal.samples) == 12
    c = cal.samples[-4:]
    rec = records[-1]
    assert rec["solve_s"] == pytest.approx(
        calibrate.Calibrator.scale(rec["wall_solve_s"], c[1], c[2]))
    assert rec["total_s"] == pytest.approx(rec["setup_s"] + rec["solve_s"])


def test_calibration_scales_by_the_mean_of_the_samples_around_a_stage():
    assert calibrate.Calibrator.scale(2.0, calibrate.NOMINAL_S,
                                      3 * calibrate.NOMINAL_S) == 1.0
    cal = calibrate.Calibrator()
    assert cal.sample() > 0.0 and len(cal.samples) == 1


@pytest.mark.parametrize("mode", ["sync", "async-sim"])
def test_traced_run_reproduces_counts_and_the_command_line(monkeypatch, mode):
    config = dict(TINY, mode=mode, staleness=3)
    monkeypatch.setitem(run.WORKLOADS, "tiny", config)
    records, metrics, checks = run.traced_run(run.Workload(mslcp, "tiny", 5))
    assert all(r["passed"] for r in records)
    assert checks == {"traced counts equal untraced": True,
                      "mslcp-bench counts equal in-process": True}
    assert metrics["sublcp.solve_sub_lcp.lower_triangular.calls"][0] > 0
    assert metrics["sparse.solve_lower_triangular.calls"][0] > 0
    if mode == "async-sim":
        assert 0.0 < metrics["asynchronous.sim.update_share"][0] <= 1.0
