"""Tests for the command-line interface."""

import pytest

from repro.cli import APP_BUILDERS, main


class TestCliApps:
    def test_lists_all_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for name in APP_BUILDERS:
            assert name in out


class TestCliTraceStatsAnalyze:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("cli") / "run.rpt")
        code = main(
            [
                "trace",
                "--app",
                "multiphase",
                "--iterations",
                "120",
                "--ranks",
                "2",
                "--seed",
                "5",
                "-o",
                path,
            ]
        )
        assert code == 0
        return path

    def test_trace_writes_file(self, trace_path, capsys):
        import os

        assert os.path.exists(trace_path)

    def test_stats(self, trace_path, capsys):
        assert main(["stats", trace_path]) == 0
        out = capsys.readouterr().out
        assert "compute fraction" in out
        assert "ranks:              2" in out

    def test_analyze(self, trace_path, capsys):
        assert main(["analyze", trace_path]) == 0
        out = capsys.readouterr().out
        assert "Folding analysis" in out
        assert "MIPS" in out

    def test_stats_missing_file(self, capsys):
        assert main(["stats", "/nonexistent/trace.rpt"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("stats: ") and "/nonexistent/trace.rpt" in err

    @pytest.mark.parametrize("command", ["analyze", "stats"])
    @pytest.mark.parametrize("damage", ["junk-tail", "missing"])
    def test_unreadable_input_fails_with_one_line(
        self, trace_path, tmp_path, command, damage
    ):
        import os
        import subprocess
        import sys

        path = tmp_path / "input.rpt"
        if damage == "junk-tail":
            with open(trace_path, encoding="utf-8") as handle:
                path.write_text(handle.read() + "Z junk line\n", encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "-q", command, str(path)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{command}: ")
        if damage == "junk-tail":
            assert "unknown record tag" in lines[0] and "--salvage" in lines[0]
        else:
            assert "No such file or directory" in lines[0]


class TestCliCheck:
    @pytest.fixture(scope="class")
    def good_trace(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("check") / "good.rpt")
        assert (
            main(
                [
                    "trace",
                    "--app",
                    "multiphase",
                    "--iterations",
                    "120",
                    "--ranks",
                    "2",
                    "--seed",
                    "5",
                    "-o",
                    path,
                ]
            )
            == 0
        )
        return path

    @pytest.fixture(scope="class")
    def damaged_trace(self, good_trace, tmp_path_factory):
        from repro.resilience import CorruptionSpec, corrupt_trace_text

        with open(good_trace) as handle:
            text = handle.read()
        corrupted = corrupt_trace_text(
            text,
            [
                CorruptionSpec(op="truncate", rate=0.05),
                CorruptionSpec(op="nan_counters", rate=0.1),
            ],
            seed=7,
        )
        path = tmp_path_factory.mktemp("check") / "damaged.rpt"
        path.write_text(corrupted)
        return str(path)

    def test_good_trace_passes_strict(self, good_trace, capsys):
        assert main(["check", good_trace]) == 0
        out = capsys.readouterr().out
        assert "strict read OK" in out
        assert "trace summary" in out

    def test_damaged_trace_fails_strict(self, damaged_trace, capsys):
        assert main(["check", damaged_trace]) == 1
        out = capsys.readouterr().out
        assert "check FAILED (strict)" in out
        assert "--salvage" in out  # the hint

    def test_damaged_trace_passes_with_salvage(self, damaged_trace, capsys):
        assert main(["check", "--salvage", damaged_trace]) == 0
        out = capsys.readouterr().out
        assert "salvage: kept" in out

    def test_deep_check_prints_diagnostics(self, damaged_trace, capsys):
        assert main(["check", "--salvage", "--deep", damaged_trace]) == 0
        out = capsys.readouterr().out
        assert "deep check OK" in out
        assert "diagnostics:" in out
        assert "warning/read" in out

    def test_garbage_exits_two_even_with_salvage(self, tmp_path, capsys):
        path = tmp_path / "garbage.rpt"
        path.write_text("not a trace\n")
        assert main(["check", "--salvage", str(path)]) == 2
        out = capsys.readouterr().out
        assert "nothing salvageable" in out


class TestCliDemo:
    def test_demo_report(self, capsys):
        code = main(
            [
                "demo",
                "--app",
                "multiphase",
                "--iterations",
                "120",
                "--ranks",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Folding analysis: multiphase" in out

    def test_demo_optimize(self, capsys):
        code = main(
            [
                "demo",
                "--app",
                "mrgenesis",
                "--iterations",
                "40",
                "--ranks",
                "2",
                "--optimize",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "faster" in out
        assert "if-conversion" in out

    def test_demo_optimize_unsupported_app(self):
        with pytest.raises(SystemExit):
            main(["demo", "--app", "multiphase", "--optimize"])

    def test_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["demo", "--app", "nope"])

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])
