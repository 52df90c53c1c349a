"""Benchmark of the mslcp solvers on seeded grid complementarity problems.

One run solves instances of one workload one after another in this process
(a closed loop with one caller) through the package's public path
make_grid_lcp -> classify -> build_block_splitting -> solver, checks every
solution against the independent active-set oracle in ``oracle.py``, and
prints each end-to-end metric with its unit.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.

    python3 perfbench/run.py --workload jacobi-sync --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 1`` instead runs the workload's fixed instance set twice, first
untraced and then with every layer's bindings wrapped (``tracer.py``), and
reports the per-layer metrics.  It also solves instance 0 with the
``mslcp-bench`` command line and requires the same iteration counts.
``--workload all`` runs every workload in its own process.  Run records and
span files go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
from scipy.io import mmwrite

import calibrate
import oracle
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

OMEGA = 1.0
INNER_SOLVES = 4
OUTER_TOL = 1e-6
NOISE = 0.5
# Correctness gate on the scipy natural residual of a solution: ten times
# the outer tolerance.  The update-norm stop leaves residuals near 1e-6.
RESIDUAL_GATE = 1e-5
# reference_solve (projected Gauss-Seidel to 1e-10) must match the oracle.
REFERENCE_GATE = 1e-6
# Workloads without a per-instance reference solve time reference_solve on a
# seeded instance of this size after every instance they solve.
REFERENCE_P = 16
# Before timing, one instance of this size goes untimed through the whole
# path (set-up, solver, oracle, reference_solve), so that the first timed
# instance does not pay for first calls.
WARMUP_P = 8
CLI_TIMEOUT_S = 120

# ``instances`` is the fixed instance set: every run solves at least these,
# iteration counts and accuracy are medians over them, and the traced run
# solves exactly these.  Timings are medians over every instance of a run.
WORKLOADS = {
    "jacobi-sync": dict(p=40, m=4, variant="jacobi", mode="sync",
                        instances=6),
    "blocklower-sync": dict(p=16, m=4, variant="block_lower_triangular",
                            mode="sync", instances=12,
                            reference_per_instance=True),
    "jacobi-async-sim": dict(p=24, m=4, variant="jacobi", mode="async-sim",
                             staleness=3, instances=12),
    "jacobi-threaded": dict(p=32, m=2, variant="jacobi",
                            mode="async-threaded", instances=12),
}

E2E_UNITS = {
    "setup_s": "s", "solve_s": "s", "total_s": "s", "reference_s": "s",
    "outer_iters": "count", "inner_solves": "count", "residual": "inf-norm",
    "error_inf": "inf-norm", "peak_rss_mb": "MB",
}

# (span name, fields) of the per-layer metrics read from spans.
LAYER_SPANS = (
    ("problems.make_grid_lcp", ("s",)),
    ("problems.reference_solve", ("s",)),
    ("hmatrix.classify", ("s",)),
    ("hmatrix.spectral_radius_nonneg", ("calls", "s", "iterations")),
    ("splitting.build_block_splitting", ("s", "self_s")),
    ("splitting.contraction_apply", ("calls", "s")),
    ("sparse.spmv", ("calls", "s", "flops", "bytes_computed")),
    ("sparse.solve_lower_triangular", ("calls", "s")),
    ("sublcp.solve_sub_lcp.diagonal", ("calls", "s")),
    ("sublcp.solve_sub_lcp.lower_triangular", ("calls", "s")),
    ("sublcp.projected_gauss_seidel", ("calls", "s", "sweeps")),
    ("sublcp.natural_residual", ("calls", "s")),
    ("sync.solve_sync", ("s", "self_s")),
    ("asynchronous.solve_async_sim", ("s", "self_s")),
    ("asynchronous.solve_async_threaded", ("s",)),
)
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s",
               "iterations": "count", "sweeps": "count", "flops": "flop",
               "bytes_computed": "B"}


def load_program():
    """Import mslcp from this checkout's ``src``, never from elsewhere."""
    init = SRC / "mslcp" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: package source {init} not found; run "
                         "from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import mslcp
    if Path(mslcp.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported mslcp from {mslcp.__file__}, "
                         f"not {init}")
    return mslcp


def instance_noise(seed: int, stream: int, index: int, n: int) -> np.ndarray:
    rng = np.random.default_rng([seed, stream, index])
    return NOISE * rng.standard_normal(n)


def median(values):
    return float(statistics.median(values))


class Workload:
    """One workload's instances, solved through the package's public path."""

    def __init__(self, lib, name: str, seed: int, cal=None):
        self.lib = lib
        self.name = name
        self.seed = seed
        self.cfg = WORKLOADS[name]
        self.cal = cal
        self.counted = None
        self.first = None

    def policy_seed(self, index: int) -> int:
        """Seed of instance ``index``'s update policy: drawn per instance, so
        that a median over instances is not one policy draw's."""
        return int(np.random.default_rng([self.seed, 3, index])
                   .integers(1 << 31))

    def make_policy(self, index: int):
        """Instance ``index``'s update policy; counted when ``counted`` is a
        list."""
        policy = self.lib.RandomFair(seed=self.policy_seed(index))
        if self.counted is not None:
            policy = tracer.CountingPolicy(policy)
            self.counted.append(policy)
        return policy

    def mark(self):
        """A calibration sample between two timed stages (None when the
        workload is run without a calibrator)."""
        return self.cal.sample() if self.cal else None

    def problem(self, p: int, stream: int, index: int):
        base = self.lib.problems.make_grid_lcp(self.lib.GridLcpSpec(p))
        return self.lib.LcpProblem(
            base.A, base.f + instance_noise(self.seed, stream, index, p * p))

    def solve(self, index: int, p: int, stream: int):
        """Set up and solve instance ``index`` of size ``p``; returns
        (problem, x, report, setup seconds, solve seconds, the calibration
        sample taken between the two)."""
        lib, cfg = self.lib, self.cfg
        t0 = time.perf_counter()
        prob = self.problem(p, stream, index)
        cls = lib.hmatrix.classify(prob.A)
        ms = lib.splitting.build_block_splitting(
            prob.A, lib.Partition.contiguous(prob.n, cfg["m"]),
            cfg["variant"], matrix_class=cls)
        t1 = time.perf_counter()
        between = self.mark()
        solver_cfg = lib.SolverConfig(
            omega=OMEGA, schedule=lib.InnerSchedule.fixed(INNER_SOLVES),
            outer_tol=OUTER_TOL)
        t2 = time.perf_counter()
        if cfg["mode"] == "sync":
            x, rep = lib.sync.solve_sync(prob, ms, solver_cfg)
        elif cfg["mode"] == "async-sim":
            sched = lib.AsyncSchedule(staleness_bound=cfg["staleness"],
                                      policy=self.make_policy(index),
                                      reads="stalest")
            x, rep = lib.asynchronous.solve_async_sim(prob, ms, solver_cfg,
                                                      sched)
        else:
            x, rep = lib.asynchronous.solve_async_threaded(
                prob, ms, solver_cfg, workers=cfg["m"])
        t3 = time.perf_counter()
        return prob, x, rep, t1 - t0, t3 - t2, between

    def reference(self, prob, x_star):
        """Time one reference_solve and check it against the oracle."""
        t0 = time.perf_counter()
        ref = self.lib.problems.reference_solve(prob)
        elapsed = time.perf_counter() - t0
        err = float(np.max(np.abs(ref.x - x_star)))
        if not err <= REFERENCE_GATE:
            raise AssertionError(f"reference_solve differs from the oracle by "
                                 f"{err:.3g} (gate {REFERENCE_GATE:g})")
        return elapsed

    def instance(self, index: int, p: int | None = None,
                 stream: int = 0) -> dict:
        """Solve, check and time one instance, then time one reference_solve:
        on the instance itself on workloads that run one per instance, else
        on a seeded p=REFERENCE_P instance.  With a calibrator, each timed
        stage lies between two calibration samples and is scaled by them;
        the unscaled seconds are kept as ``wall_<stage>``.  Failures are
        recorded."""
        rec = {"index": index, "passed": False}
        try:
            before = self.mark()
            prob, x, rep, setup_s, solve_s, between = self.solve(
                index, p or self.cfg["p"], stream)
            after = self.mark()
            if index == 0 and stream == 0:
                self.first = (prob, rep)
            rec.update(outer_iters=rep.outer_iterations,
                       inner_solves=rep.total_inner_iterations,
                       converged=bool(rep.converged))
            a = oracle.to_csr(prob.A)
            f = np.array(prob.f)
            x_star, rec["oracle_steps"] = oracle.active_set_solve(a, f)
            x = np.asarray(x, dtype=np.float64)
            finite = bool(np.all(np.isfinite(x)))
            rec["residual"] = oracle.natural_residual(a, f, x) if finite \
                else float("inf")
            rec["error_inf"] = float(np.max(np.abs(x - x_star))) if finite \
                else float("inf")
            rec["passed"] = (rec["converged"] and finite
                             and bool(np.all(x >= 0.0))
                             and rec["residual"] < RESIDUAL_GATE)
            ref_before = after
            if not self.cfg.get("reference_per_instance"):
                prob = self.problem(REFERENCE_P, 1, index)
                x_star, _ = oracle.active_set_solve(oracle.to_csr(prob.A),
                                                    np.array(prob.f))
                ref_before = self.mark()
            reference_s = self.reference(prob, x_star)
            ref_after = self.mark()
            rec.update(wall_setup_s=setup_s, wall_solve_s=solve_s,
                       wall_total_s=setup_s + solve_s,
                       wall_reference_s=reference_s)
            if self.cal:
                scale = calibrate.Calibrator.scale
                setup_s = scale(setup_s, before, between)
                solve_s = scale(solve_s, between, after)
                reference_s = scale(reference_s, ref_before, ref_after)
            rec.update(setup_s=setup_s, solve_s=solve_s,
                       total_s=setup_s + solve_s, reference_s=reference_s)
        except oracle.OracleError:
            raise
        except Exception:  # one failed instance must not end the run
            traceback.print_exc()
            rec["passed"] = False
        return rec

    def warm_up(self) -> None:
        """One small untimed instance through every stage of an instance."""
        self.instance(0, p=WARMUP_P, stream=2)

    def cli_counts(self, prob) -> tuple:
        """Solve ``prob`` with ``python -m mslcp.bench`` and return its
        (out_iterations, total_inner_iterations)."""
        cfg = self.cfg
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            tmp = Path(tmp)
            mmwrite(str(tmp / "a.mtx"), oracle.to_csr(prob.A),
                    symmetry="general")
            (tmp / "f.txt").write_text(
                "".join(repr(float(v)) + "\n" for v in prob.f))
            cmd = [sys.executable, "-m", "mslcp.bench",
                   "--matrix", str(tmp / "a.mtx"), "--rhs", str(tmp / "f.txt"),
                   "--m", str(cfg["m"]), "--variant", cfg["variant"],
                   "--omega", repr(OMEGA), "--schedule", f"fixed:{INNER_SOLVES}",
                   "--outer-tol", repr(OUTER_TOL), "--mode", cfg["mode"],
                   "--output", str(tmp / "report.json")]
            if cfg["mode"] == "async-sim":
                cmd += ["--staleness", str(cfg["staleness"]),
                        "--policy", f"random:{self.policy_seed(0)}",
                        "--reads", "stalest"]
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                              else []))
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S, check=False)
            if proc.returncode != 0:
                raise AssertionError(f"mslcp.bench exited {proc.returncode}: "
                                     f"{proc.stderr.strip()}")
            report = json.loads((tmp / "report.json").read_text())
        return report["out_iterations"], report["total_inner_iterations"]


TIMINGS = ("setup_s", "solve_s", "total_s", "reference_s")


def timed_run(wl: Workload, seconds: float):
    """Instances until ``seconds`` have passed and the fixed set is done."""
    k = wl.cfg["instances"]
    records = []
    wl.warm_up()
    start = time.perf_counter()
    while len(records) < k or time.perf_counter() - start < seconds:
        records.append(wl.instance(len(records)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = [r for r in records if r["passed"]]
    fixed = records[:k]
    metrics, samples = {}, {}
    if ok:
        for key in TIMINGS:
            metrics[key] = median([r[key] for r in ok])
            samples[key] = len(ok)
    if all(r["passed"] for r in fixed):
        for key in ("outer_iters", "inner_solves", "residual", "error_inf"):
            metrics[key] = median([r[key] for r in fixed])
            samples[key] = len(fixed)
    metrics["peak_rss_mb"] = peak_rss_mb
    samples["peak_rss_mb"] = 1
    checks = {"every end-to-end metric measured":
              set(metrics) == set(E2E_UNITS)}
    return records, metrics, samples, checks


def layer_metrics(wl: Workload, totals: dict, policies, traced: list,
                  untraced: list) -> dict:
    out = {}
    for name, fields in LAYER_SPANS:
        t = totals.get(name, {})
        measure = t.get("measure")
        for field in fields:
            if field in ("calls", "s", "self_s"):
                value = t.get(field, 0)
            elif field == "flops":
                value = 2 * measure[0] if measure else 0
            elif field == "bytes_computed":
                value = measure[1] if measure else 0
            else:
                value = measure or 0
            out[f"{name}.{field}"] = (value, FIELD_UNITS[field])

    out["asynchronous.sim.update_share"] = (
        sum(p.updates for p in policies) / sum(p.slots for p in policies)
        if policies else 0.0,
        "ratio")
    threaded_s = totals.get("asynchronous.solve_async_threaded", {}).get("s", 0)
    busy = sum(totals.get(name, {}).get("worker_root_s", 0.0)
               for name in ("sparse.spmv", "sublcp.solve_sub_lcp.diagonal",
                            "sublcp.solve_sub_lcp.lower_triangular"))
    publications = sum(r["outer_iters"] for r in traced)
    is_threaded = wl.cfg["mode"] == "async-threaded" and threaded_s > 0
    out["asynchronous.threaded.worker_busy_share"] = (
        busy / (wl.cfg["m"] * threaded_s) if is_threaded else 0.0, "ratio")
    out["asynchronous.threaded.publications_per_s"] = (
        publications / threaded_s if is_threaded else 0.0, "1/s")
    out["asynchronous.threaded.monitor_residual_calls"] = (
        totals.get("sublcp.natural_residual", {}).get("calls_by_parent", {})
        .get("asynchronous.solve_async_threaded", 0), "count")
    base = median([r["solve_s"] for r in untraced])
    out["trace.overhead_share"] = (
        (median([r["solve_s"] for r in traced]) - base) / base, "ratio")
    return out


def traced_run(wl: Workload):
    """The fixed instance set untraced, then traced; per-layer metrics."""
    k = wl.cfg["instances"]
    untraced = [wl.instance(i) for i in range(k)]
    first = wl.first
    spans = tracer.Tracer()
    wl.counted = []
    traced = []
    with tracer.patched(tracer.layer_bindings(spans, wl.lib)):
        for i in range(k):
            spans.instance = i
            traced.append(wl.instance(i))
        spans.instance = -1
    policies, wl.counted = wl.counted, None
    records = untraced + traced
    checks = {}
    deterministic = wl.cfg["mode"] != "async-threaded"
    if deterministic:
        def counts(recs):
            return [(r.get("outer_iters"), r.get("inner_solves")) for r in recs]
        checks["traced counts equal untraced"] = counts(untraced) == counts(traced)
        checks["mslcp-bench counts equal in-process"] = first is not None and (
            wl.cli_counts(first[0]) == (first[1].outer_iterations,
                                        first[1].total_inner_iterations))
    OUT.mkdir(exist_ok=True)
    spans.write_csv(OUT / f"spans_{wl.name}_seed{wl.seed}.csv")
    if not all(r["passed"] for r in records):
        return records, {}, checks
    totals = tracer.summarize(spans.spans,
                              main_thread=threading.main_thread().ident)
    metrics = layer_metrics(wl, totals, policies, traced, untraced)
    return records, metrics, checks


def read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def cpu_model() -> str:
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def loadavg() -> str:
    return " ".join(read_text("/proc/loadavg").split()[:3])


def run_one(args) -> int:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    load_before = loadavg()
    lib = load_program()
    cal = calibrate.Calibrator()
    wl = Workload(lib, args.workload, args.seed, cal=cal)
    wall_medians = {}
    if args.trace:
        records, metrics, checks = traced_run(wl)
        values = {name: value for name, (value, _) in metrics.items()}
        units = {name: unit for name, (_, unit) in metrics.items()}
        samples = {name: wl.cfg["instances"] for name in values}
    else:
        records, values, samples, checks = timed_run(wl, args.seconds)
        units = E2E_UNITS
        for key in TIMINGS:
            timed = [r["wall_" + key] for r in records
                     if r["passed"] and "wall_" + key in r]
            if timed:
                wall_medians[key] = median(timed)
    wall = time.perf_counter() - wall0
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "config": wl.cfg,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "loadavg_before": load_before,
        "loadavg_after": loadavg(), "wall_s": wall,
        "cpu_over_wall": (time.process_time() - cpu0) / wall,
        "residual_gate": RESIDUAL_GATE, "reference_gate": REFERENCE_GATE,
        "calibration_nominal_s": calibrate.NOMINAL_S,
        "calibration_samples": cal.samples, "wall_medians": wall_medians,
        "checks": checks, "instances": records, "metrics": values,
    }
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"record_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    attempted = len(records)
    failed = sum(not r["passed"] for r in records)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} instances, {wall:.1f} s wall")
    for name, value in values.items():
        print(f"  {name:48s} {value:>14.6g} {units[name]:9s} "
              f"(n={samples[name]})"
              + (f" wall-clock {wall_medians[name]:.6g} s"
                 if name in wall_medians else ""))
    if cal.samples:
        print(f"  calibration sample: median {median(cal.samples):.6g} s of "
              f"nominal {calibrate.NOMINAL_S:g} s, {len(cal.samples)} taken")
    print(f"  {'failed_frac':48s} {failed / attempted:>14.6g} {'ratio':9s} "
          f"({failed} of {attempted})")
    for name, ok in checks.items():
        print(f"  check: {name}: {'ok' if ok else 'FAILED'}")
    print(f"  record: python {record['python']}, numpy {record['numpy']}, "
          f"scipy {record['scipy']}, nproc {record['nproc']}, "
          f"cpu {record['cpu_model']!r}, loadavg {load_before} -> "
          f"{record['loadavg_after']}, cpu/wall {record['cpu_over_wall']:.2f}"
          f" ({record_path.relative_to(ROOT)})")
    correct = failed == 0 and all(checks.values()) and bool(values)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of all metrics."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 \
            and lines else None
    print()
    units = {}
    for res in results.values():
        for metric, entry in (res or {}).get("metrics", {}).items():
            units.setdefault(metric, entry["unit"])
    print(f"{'metric':48s} {'unit':9s}" + "".join(f"{w:>18s}" for w in results))
    for metric, unit in units.items():
        row = f"{metric:48s} {unit:9s}"
        for res in results.values():
            entry = (res or {}).get("metrics", {}).get(metric)
            row += f"{entry['value']:>18.6g}" if entry else f"{'-':>18s}"
        print(row)
    row = f"{'failed_frac':48s} {'ratio':9s}"
    for res in results.values():
        row += f"{res['failed'] / res['attempted']:>18.6g}" if res \
            else f"{'-':>18s}"
    print(row)
    ok = all(res and res["correct"] for res in results.values())
    print("all workloads correct" if ok else "some workload FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
