"""Command-line harness: exit codes, report schemas, determinism, comparison."""

import json

import numpy as np
import pytest

from mslcp.bench import HISTORY_HEADER, build_parser, main, resolved
from mslcp.io import read_matrix_market, read_vector


def run(tmp_path, *extra, grid=8, m=2, mode="sync", schedule="fixed:2",
        output=None, fmt="json"):
    argv = [f"--grid", str(grid), "--m", str(m), "--mode", mode,
            "--schedule", schedule]
    if output is not None:
        argv += ["--output", str(output), "--format", fmt]
    argv += list(extra)
    return main(argv)


class TestExitCodes:
    def test_converged_run_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(tmp_path, output=out) == 0
        assert "converged=True" in capsys.readouterr().out
        assert out.exists()

    def test_nonconvergence_exits_two_with_partial_report(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(tmp_path, "--max-outer", "3", "--outer-tol", "1e-14",
                   output=out)
        assert code == 2
        rec = json.loads(out.read_text())
        assert rec["converged"] is False
        assert rec["out_iterations"] == 3

    def test_nonfinite_update_norm_exits_two(self, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(tmp_path, "--omega", "1e308", grid=4, schedule="fixed:1")
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("solver failed: iteration diverged at outer step 1: "
                       "update norm nan\n")

    def test_malformed_config_exits_64_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        code = main(["--grid", "8", "--m", "2", "--schedule", "fixed:oops",
                     "--output", str(out)])
        assert code == 64
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_console_script_exits_zero(self, monkeypatch, capsys):
        # the mslcp-bench entry point that pyproject.toml declares
        from mslcp.bench import console_main
        monkeypatch.setattr("sys.argv", ["mslcp-bench", "--grid", "4",
                                         "--m", "2"])
        with pytest.raises(SystemExit) as got:
            console_main()
        assert got.value.code == 0
        assert "converged=True" in capsys.readouterr().out

    def test_unknown_flag_exits_64(self, capsys):
        assert main(["--grid", "8", "--no-such-flag"]) == 64

    def test_conflicting_problem_sources_exit_64(self, tmp_path):
        assert main(["--grid", "8", "--matrix", "x.mtx", "--rhs", "y.txt"]) == 64

    def test_non_hplus_input_exits_64(self, tmp_path):
        from mslcp import SparseMatrix
        from mslcp.io import write_matrix_market, write_vector
        write_matrix_market(tmp_path / "bad.mtx",
                            SparseMatrix.from_dense([[1.0, -2.0], [-2.0, 1.0]]))
        write_vector(tmp_path / "bad.rhs", [1.0, 1.0])
        code = main(["--matrix", str(tmp_path / "bad.mtx"),
                     "--rhs", str(tmp_path / "bad.rhs"),
                     "--export-problem", str(tmp_path / "out")])
        assert code == 64
        assert not (tmp_path / "out.mtx").exists()
        assert not (tmp_path / "out.rhs.txt").exists()

    def test_bad_shift_error_names_the_shift(self, capsys):
        assert main(["--grid", "4", "--m", "2", "--shift", "-4"]) == 64
        err = capsys.readouterr().err
        assert err.startswith("mslcp-bench: error: ")
        assert "shift" in err

    def test_async_fields_rejected_outside_async_sim(self, tmp_path):
        assert main(["--grid", "8", "--mode", "sync", "--staleness", "3"]) == 64
        assert main(["--grid", "8", "--mode", "async-threaded",
                     "--policy", "roundrobin:2"]) == 64
        out = tmp_path / "r.json"
        assert main(["--grid", "6", "--m", "2", "--mode", "async-threaded",
                     "--history", "--output", str(out)]) == 64
        assert not out.exists()
        assert not (tmp_path / "r.json.history.csv").exists()


    def test_history_without_output_exits_64(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(tmp_path, "--history") == 64
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("grid = 6\nhistory = true\n")
        assert main(["--config", str(cfgfile)]) == 64
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("argv", [
        ["--grid", "4", "--m", "2", "--partition", "contiguous:x"],
        ["--grid", "4", "--m", "2", "--partition", "file:{tmp}/missing.txt"],
        ["--grid", "2", "--m", "2", "--partition", "file:{tmp}/part99.txt"],
        ["--grid", "2", "--m", "9"],
        ["--grid", "4", "--m", "2", "--max-outer", "0"],
        ["--grid", "4", "--m", "2", "--shift", "-4"],
        ["--matrix", "{tmp}/rect.mtx", "--rhs", "{tmp}/rhs2.txt"],
        ["--matrix", "{tmp}/zero_diag.mtx", "--rhs", "{tmp}/rhs2.txt"],
        ["--grid", "4", "--m", "2", "--omega", "0"],
        ["--grid", "4", "--m", "2", "--outer-tol", "-1"],
        ["--grid", "4", "--m", "2", "--omega", "nan"],
        ["--grid", "4", "--m", "2", "--omega", "inf"],
        ["--grid", "4", "--m", "2", "--outer-tol", "nan", "--max-outer", "50"],
        ["--grid", "4", "--m", "2", "--schedule", "innertol:nan",
         "--max-outer", "2"],
        ["--grid", "4", "--m", "0"],
        ["--grid", "1"],
        ["--grid", "4", "--m", "2", "--mode", "async-sim", "--staleness", "-1"],
        ["--grid", "8", "--m", "64", "--mode", "async-sim", "--policy",
         "random:1", "--staleness", "1"],
    ], ids=["partition-count", "partition-file-missing",
            "partition-index-range", "m-above-n", "max-outer-zero",
            "zero-diagonal-shift", "rectangular-matrix", "zero-diagonal-matrix",
            "omega-zero", "outer-tol-negative", "omega-nan", "omega-inf",
            "outer-tol-nan", "theta-nan", "m-zero", "grid-one",
            "staleness-negative", "random-policy-m-64"])
    def test_bad_setup_input_exits_64_with_one_line(self, tmp_path, capsys,
                                                     argv):
        from mslcp import SparseMatrix
        from mslcp.io import write_matrix_market, write_vector
        (tmp_path / "part99.txt").write_text("0 1\n2 99\n")
        write_matrix_market(tmp_path / "rect.mtx",
                            SparseMatrix.from_dense(np.ones((2, 3))))
        write_matrix_market(tmp_path / "zero_diag.mtx",
                            SparseMatrix.from_dense([[0.0, -1.0], [-1.0, 2.0]]))
        write_vector(tmp_path / "rhs2.txt", [1.0, 1.0])
        code = main([a.format(tmp=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert code == 64
        assert err.startswith("mslcp-bench: error: ")
        assert err.count("\n") == 1


class TestReports:
    def test_json_embeds_resolved_config(self, tmp_path):
        out = tmp_path / "r.json"
        run(tmp_path, output=out)
        rec = json.loads(out.read_text())
        assert rec["config"]["grid"] == 8
        assert rec["config"]["mode"] == "sync"
        assert rec["schedule"] == "fixed:2"
        assert rec["final_residual"] < 1e-5
        assert "wall_time_seconds" not in rec  # deterministic by default

    def test_timing_flag_embeds_wall_time(self, tmp_path):
        out = tmp_path / "r.json"
        run(tmp_path, "--timing", output=out)
        rec = json.loads(out.read_text())
        assert rec["wall_time_seconds"] > 0.0

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "r.csv"
        run(tmp_path, output=out, fmt="csv")
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        assert header[:3] == ["problem", "n", "m"]
        assert "final_residual" in header
        assert len(lines[1].split(",")) == len(header)

    def test_csv_header_with_timing(self, tmp_path):
        out = tmp_path / "r.csv"
        run(tmp_path, "--timing", output=out, fmt="csv")
        assert out.read_text().splitlines()[0] == (
            "problem,n,m,variant,mode,omega,schedule,outer_tol,seed,"
            "staleness,policy,reads,out_iterations,converged,final_residual,"
            "omega_bound,omega_in_range,total_inner_iterations,"
            "wall_time_seconds")

    @pytest.mark.parametrize("mode", ["sync", "async-sim"])
    def test_history_csv(self, tmp_path, mode):
        extra = ("--staleness", "3", "--policy", "random:9") \
            if mode == "async-sim" else ()
        out = tmp_path / "r.json"
        run(tmp_path, "--history", *extra, mode=mode, output=out)
        hist = (tmp_path / "r.json.history.csv").read_text().splitlines()
        assert hist[0] == HISTORY_HEADER
        rec = json.loads(out.read_text())
        assert len(hist) - 1 == rec["out_iterations"]
        k, delta, res, inner = hist[1].split(",")
        assert int(k) == 0 and float(delta) > 0 and float(res) >= 0
        assert inner.count(";") == rec["m"] - 1

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(tmp_path, "--history", "--seed", "5", output=a)
        run(tmp_path, "--history", "--seed", "5", output=b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json.history.csv").read_bytes() == \
            (tmp_path / "b.json.history.csv").read_bytes()

    def test_byte_identical_async_sim(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code = run(tmp_path, "--staleness", "3", "--policy", "random:9",
                       "--history", mode="async-sim", output=path)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestProblemFiles:
    def test_export_then_reload_gives_same_run(self, tmp_path):
        out1 = tmp_path / "direct.json"
        prefix = tmp_path / "prob"
        assert run(tmp_path, "--export-problem", str(prefix), output=out1) == 0
        a = read_matrix_market(str(prefix) + ".mtx")
        f = read_vector(str(prefix) + ".rhs.txt")
        assert a.n_rows == 64 and len(f) == 64

        out2 = tmp_path / "fromfile.json"
        code = main(["--matrix", str(prefix) + ".mtx",
                     "--rhs", str(prefix) + ".rhs.txt",
                     "--m", "2", "--mode", "sync", "--schedule", "fixed:2",
                     "--output", str(out2)])
        assert code == 0
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        assert r1["out_iterations"] == r2["out_iterations"]
        assert r1["final_residual"] == r2["final_residual"]


class TestPartitions:
    def test_partition_file_flag(self, tmp_path):
        part = tmp_path / "part.txt"
        blocks = [" ".join(str(j) for j in range(start, start + 32))
                  for start in (0, 32)]
        part.write_text("\n".join(blocks) + "\n")
        out = tmp_path / "r.json"
        code = main(["--grid", "8", "--m", "2", "--schedule", "fixed:2",
                     "--partition", f"file:{part}", "--output", str(out)])
        assert code == 0
        # contiguous halves match the default contiguous partition exactly
        base = tmp_path / "base.json"
        main(["--grid", "8", "--m", "2", "--schedule", "fixed:2",
              "--output", str(base)])
        assert json.loads(out.read_text())["out_iterations"] == \
            json.loads(base.read_text())["out_iterations"]

    def test_partition_block_count_must_match_m(self, tmp_path):
        part = tmp_path / "part.txt"
        part.write_text("0 1\n2 3\n")
        assert main(["--grid", "2", "--m", "3",
                     "--partition", f"file:{part}"]) == 64


class TestSweep:
    def test_out_iterations_nonincreasing_across_reports(self, tmp_path):
        outs = []
        for q in (1, 2, 4, 8):
            out = tmp_path / f"q{q}.json"
            assert run(tmp_path, schedule=f"fixed:{q}", output=out) == 0
            outs.append(json.loads(out.read_text())["out_iterations"])
        assert all(a >= b for a, b in zip(outs, outs[1:]))


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfgfile = tmp_path / "bench.cfg"
        cfgfile.write_text("grid=8\nm=2\nmode=sync\nschedule=fixed:1\n"
                           "# comment\nouter_tol=1e-6\n")
        out = tmp_path / "r.json"
        code = main(["--config", str(cfgfile), "--schedule", "fixed:4",
                     "--output", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["schedule"] == "fixed:4"  # flag wins
        assert rec["config"]["grid"] == 8    # from file

    def test_bad_config_key_exits_64(self, tmp_path):
        cfgfile = tmp_path / "bench.cfg"
        cfgfile.write_text("grid=8\nnot_a_key=1\n")
        assert main(["--config", str(cfgfile)]) == 64

    @pytest.mark.parametrize("key", ["config", "compare", "output",
                                     "export_problem"])
    def test_config_file_cannot_name_locations(self, tmp_path, capsys, key):
        cfgfile = tmp_path / "bench.cfg"
        cfgfile.write_text(f"grid=6\n{key}={tmp_path / 'x'}\n")
        assert main(["--config", str(cfgfile)]) == 64
        assert f"{cfgfile}:2: unknown key {key!r}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["bench.cfg"]

    @pytest.mark.parametrize("line", ["omega=abc", "m=two", "mode=bogus",
                                      "reads=never", "no equals sign",
                                      "history=ture"])
    def test_bad_config_value_exits_64(self, tmp_path, line):
        cfgfile = tmp_path / "bench.cfg"
        cfgfile.write_text(f"grid=6\n{line}\n")
        assert main(["--config", str(cfgfile)]) == 64

    # every resolved key, split by problem source (grid and matrix exclude
    # each other); timing stays off so the reports can be compared
    COMMON = {"m": 3, "variant": "block_lower_triangular",
              "omega": 0.9, "schedule": "fixed:2",
              "mode": "async-sim", "staleness": 2, "policy": "random:4",
              "reads": "uniform", "outer_tol": 1e-7, "max_outer": 5000,
              "seed": 3, "format": "json", "history": True, "timing": False,
              "max_power_iters": 100000}

    def _cases(self, tmp_path):
        from mslcp import GridLcpSpec, Partition, make_grid_lcp
        from mslcp.io import write_matrix_market, write_partition, write_vector
        prob = make_grid_lcp(GridLcpSpec(p=5, shift=0.25))
        write_matrix_market(tmp_path / "a.mtx", prob.A)
        write_vector(tmp_path / "f.txt", prob.f)

        def interleaved(n):
            # the non-default partition: every third index to one block
            path = tmp_path / f"part{n}.txt"
            write_partition(path, Partition(n, 3, tuple(
                np.arange(i, n, 3) for i in range(3))))
            return f"file:{path}"

        return {"grid": dict(self.COMMON, grid=6, shift=0.5,
                             partition=interleaved(36)),
                "matrix": dict(self.COMMON, matrix=str(tmp_path / "a.mtx"),
                               rhs=str(tmp_path / "f.txt"),
                               partition=interleaved(25))}

    def test_cases_cover_every_resolved_key(self, tmp_path):
        keys = set(resolved(build_parser().parse_args([])))
        cases = self._cases(tmp_path).values()
        assert set().union(*cases) == keys

    @pytest.mark.parametrize("source", ["grid", "matrix"])
    def test_config_file_equals_flags_bytewise(self, tmp_path, source):
        values = self._cases(tmp_path)[source]
        lines, flags = [], []
        for i, (key, value) in enumerate(values.items()):
            flag = "--" + key.replace("_", "-")
            name = flag[2:] if i % 2 else key  # keys may use - or _
            if isinstance(value, bool):
                lines.append(f"{name} = {'yes' if value else 'no'}")
                flags += [flag] if value else []
            else:
                lines.append(f"{name} = {value}")
                flags += [flag, str(value)]
        cfgfile = tmp_path / "bench.cfg"
        cfgfile.write_text("\n".join(lines) + "\n")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["--config", str(cfgfile), "--output", str(a)]) == 0
        assert main(flags + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json.history.csv").read_bytes() == \
            (tmp_path / "b.json.history.csv").read_bytes()
        config = json.loads(a.read_text())["config"]
        assert all(config[k] == v for k, v in values.items())


class TestModes:
    def test_smm_mode_forces_inner_tolerance(self, tmp_path):
        out = tmp_path / "smm.json"
        assert run(tmp_path, mode="smm", output=out) == 0
        rec = json.loads(out.read_text())
        assert rec["schedule"] == "innertol:1e-08"

    def test_async_threaded_mode(self, tmp_path):
        out = tmp_path / "thr.json"
        assert run(tmp_path, mode="async-threaded", schedule="fixed:4",
                   output=out) == 0
        rec = json.loads(out.read_text())
        assert rec["converged"] is True
        assert rec["final_residual"] < 1e-5

    def test_sync_and_zero_staleness_async_match_counts(self, tmp_path):
        s, a = tmp_path / "s.json", tmp_path / "a.json"
        run(tmp_path, output=s)
        run(tmp_path, "--staleness", "0", "--policy", "all", mode="async-sim",
            output=a)
        rs, ra = json.loads(s.read_text()), json.loads(a.read_text())
        assert rs["out_iterations"] == ra["out_iterations"]
        assert rs["final_residual"] == ra["final_residual"]


class TestCompare:
    def _mkreport(self, tmp_path, name, **over):
        out = tmp_path / name
        run(tmp_path, output=out, **over)
        return out

    def test_identical_reports_tie_to_first(self, tmp_path, capsys):
        a = self._mkreport(tmp_path, "a.json")
        b = self._mkreport(tmp_path, "b.json")
        assert main(["--compare", str(a), str(b)]) == 0
        lines = capsys.readouterr().out.splitlines()
        starred = [ln for ln in lines if ln.rstrip().endswith("*")]
        assert len(starred) == 1
        assert "fixed:2" in starred[0]

    def test_nrm_inner_count_below_smm(self, tmp_path, capsys):
        nrm = self._mkreport(tmp_path, "nrm.json", schedule="fixed:4")
        smm = self._mkreport(tmp_path, "smm.json", mode="smm")
        assert main(["--compare", str(nrm), str(smm)]) == 0
        out = capsys.readouterr().out
        starred = [ln for ln in out.splitlines() if ln.rstrip().endswith("*")]
        assert len(starred) == 1 and starred[0].startswith("sync")
        r_nrm = json.loads(nrm.read_text())
        r_smm = json.loads(smm.read_text())
        assert r_nrm["total_inner_iterations"] < r_smm["total_inner_iterations"]

    def test_mismatched_problems_exit_64(self, tmp_path, capsys):
        a = self._mkreport(tmp_path, "a.json", grid=8)
        b = self._mkreport(tmp_path, "b.json", grid=4)
        assert main(["--compare", str(a), str(b)]) == 64
        assert "different problems" in capsys.readouterr().err

    @pytest.mark.parametrize("text, missing", [
        ("[1, 2]", "is not a JSON object"),
        ('{"problem": "x", "n": 1}', "lacks the keys 'm', 'mode', 'omega', "
                                     "'schedule', 'out_iterations', "
                                     "'total_inner_iterations'"),
        ({"out_iterations": "7"}, "key 'out_iterations' has the wrong type: '7'"),
        ({"out_iterations": 7.0}, "key 'out_iterations' has the wrong type: 7.0"),
        ({"total_inner_iterations": True},
         "key 'total_inner_iterations' has the wrong type: True"),
        ({"omega": "x"}, "key 'omega' has the wrong type: 'x'"),
        ({"wall_time_seconds": "x"}, "key 'wall_time_seconds' has the wrong type: 'x'"),
        ({"problem": ["grid"]}, "key 'problem' has the wrong type: ['grid']"),
    ], ids=["list", "missing-keys", "iterations-string", "iterations-float",
            "inner-bool", "omega-string", "wall-time-string", "problem-list"])
    def test_malformed_report_exits_64_naming_file_and_key(self, tmp_path,
                                                           capsys, text,
                                                           missing):
        good = self._mkreport(tmp_path, "good.json")
        bad = tmp_path / "bad.json"
        if isinstance(text, dict):
            # a valid report with one value of the wrong type
            text = json.dumps({**json.loads(good.read_text()), **text})
        bad.write_text(text)
        assert main(["--compare", str(good), str(bad)]) == 64
        err = capsys.readouterr().err
        assert err == f"mslcp-bench: error: report {bad} {missing}\n"
