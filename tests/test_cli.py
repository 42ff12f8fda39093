"""Tests for the command-line interface."""

import errno
import io
import os
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_soc_run_defaults(self):
        args = build_parser().parse_args(["soc-run"])
        assert args.soc == "3x3"
        assert args.scheme == "BC"

    def test_invalid_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["soc-run", "--scheme", "magic"])

    @pytest.mark.parametrize("command", ["soc-run", "trace", "report"])
    @pytest.mark.parametrize("budget", ["nan", "inf", "-inf", "0", "-3", "x"])
    def test_bad_budget_is_a_usage_error(self, command, budget, capsys):
        argv = [command] + (["soc"] if command != "soc-run" else [])
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + [f"--budget={budget}"])
        assert exc.value.code == 2
        assert "positive, finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "fig16", "--budget", "60"],
            ["report", "--budget", "60"],
            ["report", "convergence", "--dim", "3", "--trials", "1",
             "--budget", "5", "--scheme", "C-RR"],
            ["trace", "soc", "--dim", "99", "--trials", "7",
             "--variant", "4way"],
        ],
    )
    def test_flag_the_experiment_does_not_read_is_a_usage_error(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_convergence_and_faults_are_one_command(self):
        parser = build_parser()
        assert (
            parser.parse_args(["convergence"]).func
            is parser.parse_args(["faults"]).func
        )


class _HeadOneStdout(io.StringIO):
    """A stdout piped into ``head -1``: once the first line is out, the
    reader is gone and every further write raises."""

    def __init__(self, fileno: int) -> None:
        super().__init__()
        self._fileno = fileno

    def write(self, text: str) -> int:
        if "\n" in self.getvalue():
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        return super().write(text)

    def fileno(self) -> int:
        return self._fileno


class _ClosedStdout(_HeadOneStdout):
    """A stdout whose reader has already gone: every write raises."""

    def write(self, text: str) -> int:
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


class TestCommands:
    def test_soc_run_prints_summary(self, capsys):
        rc = main(
            ["soc-run", "--soc", "3x3", "--workload", "av-par",
             "--scheme", "static"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "peak power" in out

    def test_soc_run_custom_budget(self, capsys):
        rc = main(
            ["soc-run", "--scheme", "static", "--budget", "90"]
        )
        assert rc == 0
        assert "budget=90" in capsys.readouterr().out

    @pytest.mark.parametrize("scheme", ["BC", "BC-C", "C-RR", "TS", "static"])
    @pytest.mark.parametrize("command", ["soc-run", "trace", "report"])
    def test_budget_below_idle_floor_is_one_error_line(
        self, command, scheme, capsys, tmp_path
    ):
        argv = {
            "soc-run": ["soc-run"],
            "trace": ["trace", "soc", "--out", str(tmp_path)],
            "report": ["report", "soc", "--out", str(tmp_path / "r.json")],
        }[command]
        rc = main(argv + ["--scheme", scheme, "--budget", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_convergence_trials(self, capsys):
        rc = main(
            ["convergence", "--dim", "4", "--trials", "2",
             "--variant", "1way"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean:" in out
        assert "N=16" in out

    def test_figure_by_exact_name(self, capsys):
        rc = main(["figure", "fig01_scalability"])
        assert rc == 0
        assert "N_max" in capsys.readouterr().out

    def test_figure_by_prefix(self, capsys):
        rc = main(["figure", "fig13"])
        assert rc == 0
        assert "peak-power spread" in capsys.readouterr().out

    def test_unknown_figure_errors(self, capsys):
        rc = main(["figure", "fig99"])
        assert rc == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_unknown_figure_is_one_error_line(self, capsys):
        assert main(["figure", "nosuchfig"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown figure 'nosuchfig'")
        assert err.count("\n") == 1

    def test_bare_report_runs_fig16_with_its_flags(self, tmp_path, capsys):
        out = tmp_path / "bare.json"
        assert main(["report", "--out", str(out), "--mode", "WL-Dep"]) == 0
        assert "report fig16-BC-WL-Dep  kind=soc" in capsys.readouterr().out
        assert out.exists()

    def test_closed_stdout_is_not_a_failed_write(
        self, tmp_path, capsys, monkeypatch
    ):
        """``repro report ... | head -1``: the report is written, and the
        reader leaving early is not reported as a failed write."""
        out = tmp_path / "r.json"
        with open(tmp_path / "stdout", "w") as sink:
            monkeypatch.setattr(sys, "stdout", _HeadOneStdout(sink.fileno()))
            rc = main(
                ["report", "convergence", "--dim", "3", "--trials", "1",
                 "--out", str(out)]
            )
        assert rc == 1
        assert out.exists()
        assert "cannot write" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, files",
        [
            (
                ["report", "convergence", "--dim", "3", "--trials", "1",
                 "--out", "r.json", "--html", "r.html"],
                ["r.json", "r.html"],
            ),
            (
                ["soc-run", "--trace-out", "tdir"],
                ["tdir/trace.json", "tdir/events.jsonl", "tdir/summary.txt"],
            ),
            (
                ["convergence", "--dim", "3", "--trials", "1",
                 "--trace-out", "tdir"],
                ["tdir/trace.json", "tdir/events.jsonl", "tdir/summary.txt"],
            ),
        ],
        ids=["report-html", "soc-run-trace-out", "convergence-trace-out"],
    )
    def test_requested_files_are_written_before_stdout_is_used(
        self, argv, files, tmp_path, monkeypatch
    ):
        """With the reader gone before the first line, every file the
        command was asked for is still written, and it exits 1."""
        monkeypatch.chdir(tmp_path)
        with open(tmp_path / "stdout", "w") as sink:
            monkeypatch.setattr(sys, "stdout", _ClosedStdout(sink.fileno()))
            rc = main(argv)
        assert rc == 1
        assert [f for f in files if not (tmp_path / f).is_file()] == []
