"""Benchmark harness: run one solver configuration, emit machine-readable
reports, and compare runs.

Usage (one run)::

    mslcp-bench --grid 8 --m 2 --omega 1.0 --schedule fixed:4 --mode sync \
                --output report.json

Modes: ``sync`` (synchronous), ``async-sim`` (deterministic staleness
simulator), ``async-threaded`` (one thread per processor), ``smm`` (the
standard-multisplitting baseline: synchronous with inner tolerance 1e-8).

Reports are byte-identical for identical configs and seeds; wall-clock time
is printed to stdout always but embedded in report files only with
``--timing``, since timing is never reproducible.  Exit codes: 0 converged,
2 did not converge (partial report still written), 64 usage error.

Comparison::

    mslcp-bench --compare report_a.json report_b.json
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .asynchronous import AllEveryStep, AsyncSchedule, RandomFair, RoundRobin, \
    solve_async_sim, solve_async_threaded
from .errors import ConvergenceError
from .hmatrix import classify
from .io import read_matrix_market, read_partition, read_vector, \
    write_matrix_market, write_vector
from .problems import GridLcpSpec, make_grid_lcp
from .splitting import Partition, build_block_splitting
from .sublcp import LcpProblem, natural_residual
from .sync import InnerSchedule, SolverConfig, solve_sync

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_USAGE = 64

MODES = ("sync", "async-sim", "async-threaded", "smm")
# the keys --compare reads and their JSON types; wall_time_seconds is optional
COMPARE_KEYS = {"problem": str, "n": int, "m": int, "mode": str, "omega": (int, float),
                "schedule": str, "out_iterations": int, "total_inner_iterations": int,
                "wall_time_seconds": (int, float)}
HISTORY_HEADER = "k,update_norm,natural_residual,inner_counts"


class UsageError(ValueError):
    """Configuration problem; maps to exit code 64."""


def validate(args: argparse.Namespace) -> None:
    """The rules that span options; each single value is checked where it
    is parsed or used."""
    if (args.grid is None) == (args.matrix is None):
        raise UsageError("specify exactly one of --grid or --matrix")
    if args.matrix is not None and args.rhs is None:
        raise UsageError("--matrix requires --rhs")
    if args.mode != "async-sim" and (args.staleness != 0
                                     or args.policy != "all"
                                     or args.reads != "stalest"):
        raise UsageError("--staleness, --policy and --reads apply only "
                         "to --mode async-sim")
    if args.history and not args.output:
        raise UsageError("--history needs --output (the history is "
                         "written to OUTPUT.history.csv)")
    if args.history and args.mode == "async-threaded":
        raise UsageError("--history applies only to --mode sync, smm "
                         "and async-sim")
    parse_schedule(args.schedule)
    parse_policy(args.policy, args.seed)


def resolved(args: argparse.Namespace) -> dict:
    """Solver-relevant configuration; output locations are excluded so the
    report bytes depend only on what was computed."""
    skip = ("config", "compare", "output", "export_problem")
    return {k: v for k, v in vars(args).items() if k not in skip}


def parse_schedule(text: str) -> InnerSchedule:
    kind, _, arg = text.partition(":")
    try:
        if kind == "fixed":
            return InnerSchedule.fixed(int(arg))
        if kind == "adaptive":
            return InnerSchedule.adaptive(float(arg))
        if kind == "innertol":
            return InnerSchedule.inner_tolerance(float(arg))
    except ValueError as exc:
        raise UsageError(f"bad schedule {text!r}: {exc}") from exc
    raise UsageError(f"bad schedule {text!r} (want fixed:q, adaptive:eta, "
                     "or innertol:theta)")


def parse_policy(text: str, seed: int):
    kind, _, arg = text.partition(":")
    try:
        if kind == "all":
            return AllEveryStep()
        if kind == "roundrobin":
            return RoundRobin(int(arg) if arg else 1)
        if kind == "random":
            return RandomFair(seed=int(arg) if arg else seed)
    except ValueError as exc:
        raise UsageError(f"bad policy {text!r}: {exc}") from exc
    raise UsageError(f"bad policy {text!r} (want all, roundrobin:period, "
                     "or random:seed)")


def load_problem(cfg: argparse.Namespace):
    """Returns (LcpProblem, identity string)."""
    if cfg.grid is not None:
        prob = make_grid_lcp(GridLcpSpec(p=cfg.grid, shift=cfg.shift))
        ident = f"grid:p={cfg.grid}"
        if cfg.shift:
            ident += f";shift={cfg.shift:g}"
    else:
        try:
            a = read_matrix_market(cfg.matrix)
            f = read_vector(cfg.rhs)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load problem: {exc}") from exc
        if a.n_rows != len(f):
            raise UsageError("matrix and right-hand side sizes disagree")
        prob = LcpProblem(a, f)
        ident = f"file:{os.path.basename(cfg.matrix)}:n={a.n_rows}"
    return prob, ident


def load_partition(cfg: argparse.Namespace, n: int) -> Partition:
    if cfg.partition == "contiguous":
        return Partition.contiguous(n, cfg.m)
    if cfg.partition.startswith("file:"):
        part = read_partition(cfg.partition[5:], n)
        if part.m != cfg.m:
            raise UsageError("partition file block count disagrees with --m")
        return part
    raise UsageError(f"bad partition {cfg.partition!r} (want contiguous "
                     "or file:PATH)")


def _float_cell(v) -> str:
    return repr(float(v))


def summary_record(cfg: argparse.Namespace, ident: str, n: int, report,
                   schedule: InnerSchedule) -> dict:
    rec = {
        "problem": ident,
        "n": n,
        "m": cfg.m,
        "variant": cfg.variant,
        "mode": cfg.mode,
        "omega": cfg.omega,
        "schedule": schedule.label(),
        "outer_tol": cfg.outer_tol,
        "seed": cfg.seed,
        "staleness": cfg.staleness,
        "policy": cfg.policy if cfg.mode == "async-sim" else "-",
        "reads": cfg.reads if cfg.mode == "async-sim" else "-",
        "out_iterations": report.outer_iterations,
        "converged": report.converged,
        "final_residual": report.final_residual,
        "omega_bound": report.omega_bound,
        "omega_in_range": report.omega_in_range,
        "total_inner_iterations": report.total_inner_iterations,
    }
    if cfg.timing:
        rec["wall_time_seconds"] = report.wall_time_seconds
    return rec


def write_summary(path: str, fmt: str, rec: dict, resolved_config: dict) -> None:
    if fmt == "json":
        payload = dict(rec)
        payload["config"] = resolved_config
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(rec))
        writer.writerow([_float_cell(v) if isinstance(v, float) else str(v)
                         for v in rec.values()])


def history_row(prob: LcpProblem, event) -> str:
    """One history CSV row; the residual is that of the first updated stream."""
    residual = natural_residual(prob, event.iterates[event.updated[0]])
    inner = ";".join(str(c) for c in event.inner_counts)
    return (f"{event.k},{_float_cell(event.update_norm)},"
            f"{_float_cell(residual)},{inner}\n")


def run_bench(cfg: argparse.Namespace) -> int:
    """Run one configuration; writes report files and prints a summary line.

    Returns the process exit code (0 converged, 2 not converged).  All
    configuration validation happens before any output file is opened, and a
    ValueError or OSError raised while setting up the problem, partition,
    splitting, solver configuration or asynchronous schedule becomes a
    UsageError (exit 64).
    """
    validate(cfg)
    try:
        # solver settings first: a bad value fails before problem assembly
        schedule = (InnerSchedule.inner_tolerance(1e-8) if cfg.mode == "smm"
                    else parse_schedule(cfg.schedule))
        solver_cfg = SolverConfig(omega=cfg.omega, schedule=schedule,
                                  outer_tol=cfg.outer_tol,
                                  max_outer=cfg.max_outer)
        sched = AsyncSchedule(staleness_bound=cfg.staleness,
                              policy=parse_policy(cfg.policy, cfg.seed),
                              reads=cfg.reads, reads_seed=cfg.seed)
        # the policy rejects an m it cannot schedule, before any assembly
        sched.policy.fairness_window(cfg.m)
        prob, ident = load_problem(cfg)
        partition = load_partition(cfg, prob.n)
        cls = classify(prob.A, max_power_iters=cfg.max_power_iters)
        if not cls.is_h_plus:
            raise UsageError("problem matrix is not H+ (positive-diagonal H-matrix)")
        ms = build_block_splitting(prob.A, partition, cfg.variant,
                                   matrix_class=cls)
        if cfg.export_problem:
            write_matrix_market(cfg.export_problem + ".mtx", prob.A)
            write_vector(cfg.export_problem + ".rhs.txt", prob.f)
    except UsageError:
        raise
    except ConvergenceError as exc:
        raise UsageError(f"classification failed: {exc}") from exc
    except (ValueError, OSError) as exc:
        raise UsageError(f"set-up failed: {exc}") from exc
    rows = [HISTORY_HEADER + "\n"]
    on_step = (lambda e: rows.append(history_row(prob, e))) \
        if cfg.history else None

    try:
        if cfg.mode in ("sync", "smm"):
            x, report = solve_sync(prob, ms, solver_cfg, on_step=on_step)
        elif cfg.mode == "async-sim":
            x, report = solve_async_sim(prob, ms, solver_cfg, sched,
                                        on_step=on_step)
        else:
            x, report = solve_async_threaded(prob, ms, solver_cfg, workers=ms.m)
    except (ConvergenceError, RuntimeError) as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED

    rec = summary_record(cfg, ident, prob.n, report, schedule)
    if cfg.output:
        write_summary(cfg.output, cfg.format, rec, resolved(cfg))
        if cfg.history:
            with open(cfg.output + ".history.csv", "w") as fh:
                fh.writelines(rows)
    print(f"{ident} mode={cfg.mode} m={cfg.m} omega={cfg.omega:g} "
          f"schedule={rec['schedule']} -> converged={report.converged} "
          f"out_iter={report.outer_iterations} "
          f"inner_total={report.total_inner_iterations} "
          f"residual={report.final_residual:.3e} "
          f"omega_bound={report.omega_bound:.4f} "
          f"time={report.wall_time_seconds:.3f}s")
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def compare_runs(paths) -> int:
    """Aligned comparison of saved JSON reports for one problem.

    Ranks by wall time when every report carries it, otherwise by total
    inner iterations; ties go to the first report.
    """
    if len(paths) < 2:
        raise UsageError("--compare needs at least two report files")
    recs = []
    for p in paths:
        try:
            with open(p) as fh:
                rec = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read report {p}: {exc}") from exc
        if not isinstance(rec, dict):
            raise UsageError(f"report {p} is not a JSON object")
        missing = [k for k in COMPARE_KEYS if k not in rec and k != "wall_time_seconds"]
        if missing:
            raise UsageError(f"report {p} lacks the keys "
                             + ", ".join(map(repr, missing)))
        for k, want in COMPARE_KEYS.items():
            if k in rec and (isinstance(rec[k], bool) or not isinstance(rec[k], want)):
                raise UsageError(f"report {p} key {k!r} has the wrong type: {rec[k]!r}")
        recs.append(rec)
    ident = {(r.get("problem"), r.get("n")) for r in recs}
    if len(ident) != 1:
        raise UsageError("reports describe different problems: "
                         + ", ".join(sorted(str(i) for i in ident)))

    rank = "wall_time_seconds" if all("wall_time_seconds" in r for r in recs) \
        else "total_inner_iterations"
    best = min(range(len(recs)), key=lambda i: recs[i][rank])

    header = f"{'config':40s} {'out_iter':>9s} {'inner':>9s} {'time[s]':>10s} fastest"
    print(header)
    print("-" * len(header))
    for i, (p, r) in enumerate(zip(paths, recs)):
        label = f"{r['mode']}/{r['schedule']}/m={r['m']}/omega={r['omega']:g}"
        t = f"{r['wall_time_seconds']:.4f}" if "wall_time_seconds" in r else "-"
        mark = "*" if i == best else ""
        print(f"{label:40s} {r['out_iterations']:9d} "
              f"{r['total_inner_iterations']:9d} {t:>10s} {mark}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    """The one table of options: flags, types, choices and defaults."""
    p = _Parser(prog="mslcp-bench", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", help="key=value file; flags override it")
    p.add_argument("--grid", type=int, help="grid side p of the built-in family (n=p^2)")
    p.add_argument("--shift", type=float, default=0.0,
                   help="diagonal shift for the grid family")
    p.add_argument("--matrix", help="MatrixMarket coefficient matrix")
    p.add_argument("--rhs", help="right-hand-side vector file (one value per line)")
    p.add_argument("--m", type=int, default=2,
                   help="number of processors/splittings")
    p.add_argument("--variant", choices=["jacobi", "block_lower_triangular"],
                   default="jacobi", help="splitting family")
    p.add_argument("--partition", default="contiguous",
                   help="contiguous or file:PATH")
    p.add_argument("--omega", type=float, default=1.0,
                   help="relaxation parameter")
    p.add_argument("--schedule", default="fixed:1",
                   help="fixed:q | adaptive:eta | innertol:theta")
    p.add_argument("--mode", choices=list(MODES), default="sync")
    p.add_argument("--staleness", type=int, default=0,
                   help="staleness bound d (async-sim)")
    p.add_argument("--policy", default="all",
                   help="all | roundrobin:period | random:seed")
    p.add_argument("--reads", choices=["latest", "stalest", "uniform"],
                   default="stalest", help="stale-read rule (async-sim)")
    p.add_argument("--outer-tol", type=float, default=1e-6, dest="outer_tol")
    p.add_argument("--max-outer", type=int, default=200000, dest="max_outer")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="report file path")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--history", action="store_true",
                   help="also write per-iteration CSV next to the report")
    p.add_argument("--timing", action="store_true",
                   help="embed wall time in report files (breaks byte-identity)")
    p.add_argument("--max-power-iters", type=int, default=200000,
                   dest="max_power_iters",
                   help="cap on the operator applications of the "
                        "classification's spectral-radius estimate and on "
                        "its H-matrix witness iterations")
    p.add_argument("--export-problem", dest="export_problem",
                   help="write the problem as PREFIX.mtx and PREFIX.rhs.txt")
    p.add_argument("--compare", nargs="+", metavar="REPORT",
                   help="compare saved JSON reports instead of running")
    return p


def config_argv(parser: _Parser, path: str) -> list:
    """The flags a key=value config file stands for.

    Keys are the resolved option names (``-`` or ``_``); a key whose default
    is a bool is a switch, set by 1, true, yes or on and left off by 0,
    false, no or off (any case); any other switch value is a usage error.
    The other values are checked when the flags are parsed.
    """
    defaults = resolved(parser.parse_args([]))
    out = []
    try:
        fh = open(path)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in defaults:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            flag = "--" + key.replace("_", "-")
            if not isinstance(defaults[key], bool):
                out.append(f"{flag}={value}")
            elif value.lower() in ("1", "true", "yes", "on"):
                out.append(flag)
            elif value.lower() not in ("0", "false", "no", "off"):
                raise UsageError(f"{path}:{lineno}: {key} must be one of "
                                 "1/true/yes/on or 0/false/no/off, "
                                 f"got {value!r}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.compare:
            return compare_runs(args.compare)
        if args.config:
            # the file's flags come first, so the command line wins
            args = parser.parse_args(config_argv(parser, args.config) + argv)
        return run_bench(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except UsageError as exc:
        print(f"mslcp-bench: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
