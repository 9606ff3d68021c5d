import json
import os

import pytest
from mpmath import mp, mpf

from partition_well import cli, oracle
from partition_well.cli import GridSpec, main
from partition_well.fermion_medium import VariantDomainError
from partition_well.numerics import (MaxIterations, NoSignChange, NonConvergent,
                                     PrecisionExhausted)


def run_cli(args):
    return main(args)


class TestShowConfig:
    def test_defaults_printed(self, capsys):
        assert run_cli(["show-config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == "1"
        assert doc["config"]["statistics"] == "boson"
        assert doc["config"]["N"] == 100

    def test_config_file_and_flag_precedence(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.conf"
        cfg.write_text("stat=fermion\nN=7\ndigits=9\n# comment line\n")
        monkeypatch.setenv("PARTITION_WELL_CONFIG", str(cfg))
        assert run_cli(["show-config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["statistics"] == "fermion"
        assert doc["config"]["N"] == 7
        # flags override the file
        assert run_cli(["show-config", "--N", "12"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["N"] == 12
        assert doc["config"]["statistics"] == "fermion"

    def test_unknown_config_key_rejected(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.conf"
        cfg.write_text("colour=blue\n")
        monkeypatch.setenv("PARTITION_WELL_CONFIG", str(cfg))
        assert run_cli(["show-config"]) == 2

    def test_missing_config_file(self, monkeypatch):
        monkeypatch.setenv("PARTITION_WELL_CONFIG", "/nonexistent/path.conf")
        assert run_cli(["show-config"]) == 2


class TestCurve:
    def test_csv_structure_and_reproducibility(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["curve", "--stat", "boson", "--N", "5", "--t", "0.5:50:5:log",
                "--digits", "12"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        data1 = out1.read_bytes()
        assert data1 == out2.read_bytes()
        lines = data1.decode().splitlines()
        assert lines[0] == "t,alpha_plus,alpha_minus,f_plus,f_minus,delta_f,delta_f_error"
        assert len(lines) == 6
        ts = [float(row.split(",")[0]) for row in lines[1:]]
        assert ts == sorted(ts)

    def test_json_format(self, tmp_path):
        out = tmp_path / "c.json"
        assert run_cli(["curve", "--stat", "fermion", "--N", "4",
                        "--t", "1:10:3:linear", "--format", "json",
                        "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "1"
        assert len(doc["rows"]) == 3
        row = doc["rows"][0]
        assert float(row["delta_f"]) > 0
        assert float(row["f_minus"]) - float(row["f_plus"]) == pytest.approx(
            float(row["delta_f"]), rel=1e-9)

    @pytest.mark.parametrize("base", [
        ["curve", "--stat", "boson", "--N", "5", "--t", "0.5:50:4:log"],
        ["compare", "--stat", "fermion", "--N", "3", "--t", "1:40:3:log",
         "--approx", "fermion_two_level,high_next"],
    ], ids=["curve", "compare"])
    def test_parallel_jobs_identical_output(self, base, tmp_path):
        out1 = tmp_path / "serial.csv"
        out2 = tmp_path / "parallel.csv"
        assert run_cli(base + ["--jobs", "1", "--out", str(out1)]) == 0
        assert run_cli(base + ["--jobs", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("jobs, points, cpus, workers", [
        ("100000", 2, 4, 2), ("3", 8, 4, 3), ("100000", 8, 4, 4), ("100000", 8, None, 1)])
    def test_pool_size_capped(self, jobs, points, cpus, workers, monkeypatch):
        # an in-process stand-in records the pool size; no process is started
        sizes = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert run_cli(["curve", "--stat", "boson", "--N", "2",
                        "--t", f"1:2:{points}:log", "--jobs", jobs]) == 0
        assert sizes == [workers]

    @pytest.mark.parametrize("command", [["curve"], ["compare", "--approx", "high_next"]])
    def test_numeric_failure_names_grid_point(self, command, monkeypatch, capsys):
        original = oracle.net_force

        def fail_at_two(stat, N, t, policy):
            if t == 2:
                raise MaxIterations("injected")
            return original(stat, N, t, policy)

        monkeypatch.setattr(oracle, "net_force", fail_at_two)
        assert run_cli(command + ["--stat", "boson", "--N", "3",
                                  "--t", "1:3:3:linear"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("numeric failure at grid point 1 (t = 2.0): MaxIterations: injected"
                in captured.err)

    @pytest.mark.parametrize("t", ["1e120", "1e308"])
    def test_huge_temperature_exit_0(self, t, capsys):
        # a float M/eps overflows at 1e120 and eps underflows at 1e308:
        # the stride is chosen from their logarithms
        assert run_cli(["curve", "--stat", "boson", "--N", "3",
                        "--t", f"{t}:{t}:1:log"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[0]) == float(t)
        delta_f, error = mpf(row[5]), mpf(row[6])
        with mp.workdps(40):
            lead = mpf(3) / 2 * mp.sqrt(mpf(float(t)) / mp.pi)
        assert abs(delta_f - lead) + 1 <= error

    def test_invalid_grid_exit_2(self):
        assert run_cli(["curve", "--t", "5:1:10:log"]) == 2
        assert run_cli(["curve", "--t", "1:5:10:cubic"]) == 2
        assert run_cli(["curve", "--t", "1:5"]) == 2
        for grid in ("0:50:4:linear", "-1:1:3:linear", "1:inf:3:log", "nan:nan:1:log"):
            assert run_cli(["curve", "--t=" + grid]) == 2

    def test_boson_zero_t_anchor_in_output(self, tmp_path):
        out = tmp_path / "z.csv"
        assert run_cli(["curve", "--stat", "boson", "--N", "100",
                        "--t", "0.001:0.001:1:log", "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[5]) == pytest.approx(75.0, abs=1e-6)


class TestGridSpec:
    # the CLI runs at mpmath's default 15 digits
    def test_log_endpoints_exact(self):
        with mp.workdps(15):
            assert GridSpec(1, 2, 2, "log").temperatures() == [1, 2]
            grid = GridSpec(1, 1e20, 3, "log").temperatures()
        assert grid[0] == 1 and grid[-1] == mpf(1e20)
        assert grid[1] == mpf(1e10)  # rounded once from working precision

    def test_linear_endpoints_exact(self):
        with mp.workdps(15):
            grid = GridSpec(0.1, 0.7, 7, "linear").temperatures()
        assert grid[0] == mpf(0.1) and grid[-1] == mpf(0.7)
        assert grid == sorted(grid)

    def test_coinciding_points_usage_error(self):
        with mp.workdps(15), pytest.raises(cli.UsageError):
            GridSpec(1, 1.0000000000000002, 5, "linear").temperatures()


class TestCompare:
    def test_unknown_name_exit_2(self, capsys):
        assert run_cli(["compare", "--approx", "extrapolation"]) == 2
        err = capsys.readouterr().err
        assert "valid names" in err

    def test_wrong_statistics_exit_2(self):
        assert run_cli(["compare", "--stat", "boson", "--approx",
                        "fermion_stoner"]) == 2

    def test_high_next_errors_decrease(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert run_cli(["compare", "--stat", "boson", "--N", "100",
                        "--t", "1e6:1e8:3:log", "--approx", "high_next",
                        "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        errs = [float(r["abs_error"]) for r in doc["rows"]]
        assert errs == sorted(errs, reverse=True)
        assert doc["summary"][0]["approximation"] == "high_next"

    def test_domain_failures_leave_blank_cells(self, tmp_path):
        # the stoner inversion only covers part of the grid
        out = tmp_path / "cmp.csv"
        assert run_cli(["compare", "--stat", "fermion", "--N", "20",
                        "--t", "10:4000:4:log", "--approx",
                        "fermion_stoner,fermion_two_level",
                        "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#") and l]
        stoner_rows = [r for r in rows[1:] if r.split(",")[2] == "fermion_stoner"]
        assert any(r.endswith(",,,") or ",,," in r for r in stoner_rows)

    @pytest.mark.parametrize("exc", [MaxIterations, PrecisionExhausted,
                                     NoSignChange, NonConvergent])
    def test_solver_failures_exit_3_naming_t(self, exc, monkeypatch, capsys):
        def fail(N, t, stat):
            raise exc("injected")

        monkeypatch.setitem(cli.APPROXIMATIONS, "fermion_stoner", ("fermion", fail))
        assert run_cli(["compare", "--stat", "fermion", "--N", "4", "--t", "2:2:1:log",
                        "--approx", "fermion_stoner"]) == 3
        err = capsys.readouterr().err
        assert "fermion_stoner at t = 2.0: injected" in err

    def test_solver_failure_in_worker_exits_3_naming_t(self, monkeypatch, capsys):
        # with --jobs 2 the approximations run in the pool's workers, which
        # inherit the patched registry
        def fail_at_two(N, t, stat):
            if t == 2:
                raise MaxIterations("injected")
            return mpf(1)

        monkeypatch.setitem(cli.APPROXIMATIONS, "fermion_stoner", ("fermion", fail_at_two))
        assert run_cli(["compare", "--stat", "fermion", "--N", "4", "--t", "1:3:3:linear",
                        "--approx", "fermion_stoner", "--jobs", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numeric failure in fermion_stoner at t = 2.0: injected" in captured.err

    def test_domain_error_leaves_blank_cell(self, monkeypatch, capsys):
        def outside(N, t, stat):
            raise VariantDomainError("injected")

        monkeypatch.setitem(cli.APPROXIMATIONS, "fermion_stoner", ("fermion", outside))
        assert run_cli(["compare", "--stat", "fermion", "--N", "4", "--t", "2:2:1:log",
                        "--approx", "fermion_stoner", "--format", "csv"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.startswith("2.0,") and row.endswith(",fermion_stoner,,,")

    def test_summary_lines_in_csv(self, tmp_path):
        out = tmp_path / "cmp2.csv"
        assert run_cli(["compare", "--stat", "boson", "--N", "50",
                        "--t", "20:60:3:linear", "--approx", "boson_quad_naive",
                        "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert any(l.startswith("# summary ") for l in lines)


class TestReport:
    def test_zero_t(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["report", "--kind", "zero_t", "--stat", "fermion",
                        "--N", "100", "--format", "json", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())["report"]
        assert rep["delta_f"] == "5025"
        assert rep["f_minus"] == "338350"

    def test_transfer(self, capsys):
        assert run_cli(["report", "--kind", "transfer", "--stat", "boson",
                        "--N", "100", "--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)["report"]
        assert float(rep["n_plus"]) == pytest.approx(160.0)
        assert float(rep["n_minus"]) == pytest.approx(40.0)

    def test_equilibrium_shift_zero_t(self, capsys):
        assert run_cli(["report", "--kind", "equilibrium_shift", "--stat",
                        "boson", "--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)["report"]
        assert float(rep["xi"]) == pytest.approx(0.227, abs=5e-4)
        assert rep["method"] == "zero_t_closed_form"

    def test_minimum_small_fermion(self, capsys):
        assert run_cli(["report", "--kind", "minimum", "--stat", "fermion",
                        "--N", "20", "--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)["report"]
        ratio = float(rep["t_min_over_scale"])
        assert 0.3 < ratio < 0.7

    def test_searches_print_their_enclosures(self, capsys):
        assert run_cli(["report", "--kind", "minimum", "--stat", "boson", "--N", "6",
                        "--window", "0.601859:12.0372", "--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)["report"]
        assert (rep["method"], rep["t_relative_precision"]) == ("derivative_root_log_t", "1e-8")
        assert 0 < float(rep["t_min_error"]) <= 2e-8 * float(rep["t_min"])
        assert run_cli(["report", "--kind", "inflections", "--stat", "fermion", "--N", "3",
                        "--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)["report"]
        assert rep["method"] == "curvature_sign_root_log_t"
        for key in ("t_begin", "t_end"):
            assert 0 < float(rep[key + "_error"]) <= 2e-8 * float(rep[key])

    def test_inflections_require_fermion(self):
        assert run_cli(["report", "--kind", "inflections", "--stat", "boson"]) == 2

    def test_unknown_kind_usage_error(self):
        assert run_cli(["report", "--kind", "entropy"]) == 2


class TestExitCodes:
    @pytest.mark.parametrize("window", ["1:2:3", "5", "a:b", "1:", "2:1", "0:2"])
    def test_bad_window_usage_error(self, window, capsys):
        assert run_cli(["report", "--kind", "minimum", "--N", "3",
                        "--window", window]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("kind", ["equilibrium_shift", "transfer", "zero_t"])
    def test_window_outside_searches_usage_error(self, kind, capsys):
        assert run_cli(["report", "--kind", kind, "--stat", "boson", "--N", "3",
                        "--window", "1:2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --window")

    @pytest.mark.parametrize("kind", ["minimum", "inflections", "transfer", "zero_t"])
    def test_t_value_outside_shift_usage_error(self, kind, capsys):
        assert run_cli(["report", "--kind", kind, "--stat", "fermion", "--N", "3",
                        "--t-value", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --t-value")

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_usage_error(self, jobs, capsys):
        assert run_cli(["curve", "--N", "2", "--t", "1:2:2:log", "--jobs", jobs]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("t_value", ["-5", "0"])
    def test_nonpositive_shift_temperature_usage_error(self, t_value, capsys):
        assert run_cli(["report", "--kind", "equilibrium_shift", "--stat", "boson",
                        "--t-value", t_value]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", [["curve", "--N", "2", "--t", "1:2:2:log"],
                                         ["show-config"]], ids=["curve", "show-config"])
    @pytest.mark.parametrize("tol", ["0", "-1", "-5", "nan", "inf"])
    def test_abs_tol_not_positive_finite_usage_error(self, command, tol, capsys):
        assert run_cli(command + ["--abs-tol=" + tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("line", ["N=abc", "digits=x", "jobs=1.5", "abs_tol=foo",
                                      "abs_tol=0"])
    def test_bad_config_value_usage_error(self, line, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text(line + "\n")
        assert run_cli(["show-config", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and line.split("=")[0] in err

    def test_unreadable_config_usage_error(self, tmp_path, capsys):
        binary = tmp_path / "binary.conf"
        binary.write_bytes(b"N=\xff\xfe\n")
        for path in (tmp_path, binary):
            assert run_cli(["show-config", "--config", str(path)]) == 2
            assert capsys.readouterr().err.startswith("error: cannot read config file")

    def test_unopenable_out_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "curve.csv"
        assert run_cli(["curve", "--N", "2", "--t", "1:2:2:log", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot open output file")
        assert run_cli(["curve", "--N", "2", "--t", "1:2:2:log", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot open output file")

    def test_failed_run_keeps_existing_out(self, tmp_path, monkeypatch):
        # a usage error raised after the output is opened (exit 2) and a
        # numeric failure (exit 3) leave an earlier file and nothing else
        out = tmp_path / "f.csv"
        out.write_bytes(b"t,delta_f\n1,2\n")
        assert run_cli(["compare", "--N", "2", "--t", "1:2:2:log",
                        "--approx", "nosuch", "--out", str(out)]) == 2

        def fail(stat, N, t, policy):
            raise MaxIterations("injected")

        monkeypatch.setattr(oracle, "net_force", fail)
        assert run_cli(["curve", "--N", "2", "--t", "1:2:2:log", "--out", str(out)]) == 3
        assert out.read_bytes() == b"t,delta_f\n1,2\n"
        assert os.listdir(tmp_path) == ["f.csv"]

    def test_successful_run_replaces_out(self, tmp_path):
        out = tmp_path / "f.csv"
        out.write_bytes(b"old\n")
        assert run_cli(["curve", "--N", "2", "--t", "1:2:2:log", "--out", str(out)]) == 0
        assert out.read_text().startswith("t,")
        assert os.listdir(tmp_path) == ["f.csv"]

    @pytest.mark.parametrize("exc", [MaxIterations, PrecisionExhausted,
                                     NoSignChange, NonConvergent])
    def test_solver_failures_exit_3_on_report(self, exc, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise exc("injected")

        monkeypatch.setattr(oracle, "locate_minimum", fail)
        assert run_cli(["report", "--kind", "minimum", "--N", "3"]) == 3
        assert "numeric failure: injected" in capsys.readouterr().err


def test_env_config_applies_to_curve(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "pw.conf"
    cfg.write_text("stat=boson\nN=3\nt=1:2:2:linear\ndigits=10\n")
    monkeypatch.setenv("PARTITION_WELL_CONFIG", str(cfg))
    assert run_cli(["curve"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
