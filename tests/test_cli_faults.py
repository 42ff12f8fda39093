"""CLI tests for the ``faults`` subcommand and the error paths.

Error paths must exit with code 2 and a one-line stderr message —
never a traceback: the CLI is the user-facing surface, and a stack
dump for a typo'd path is a bug (and what these tests pin down).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestFaultsCommand:
    def test_rate_zero_is_bit_identical_to_convergence(self, capsys):
        """The acceptance criterion: a null plan must not perturb the
        run, so the trial lines match ``convergence`` byte for byte."""
        rc_f, out_f, _ = run_cli(
            capsys, ["faults", "--dim", "4", "--trials", "2", "--rate", "0.0"]
        )
        rc_c, out_c, _ = run_cli(
            capsys, ["convergence", "--dim", "4", "--trials", "2"]
        )
        assert rc_f == rc_c == 0
        assert out_f == out_c

    def test_lossy_run_reports_fault_summary(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["faults", "--dim", "4", "--trials", "1", "--rate", "0.05"],
        )
        assert rc == 0
        assert "faults: discarded=" in out
        assert "reconciled=" in out

    def test_kill_tile_run_converges(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["faults", "--dim", "4", "--trials", "1", "--kill-tile", "8"],
        )
        assert rc == 0
        assert "cycles" in out

    def test_plan_file_round_trip(self, capsys, tmp_path):
        from repro.faults import FaultPlan

        path = tmp_path / "plan.json"
        FaultPlan.uniform(drop=0.05, seed=3).save(path)
        rc, out, _ = run_cli(
            capsys,
            ["faults", "--dim", "4", "--trials", "1", "--plan", str(path)],
        )
        assert rc == 0
        assert "faults: discarded=" in out


class TestFaultsSweep:
    def test_sweep_prints_the_sweep_table(self, capsys):
        from repro.experiments import fault_sweep

        rc, out, err = run_cli(
            capsys, ["faults", "--sweep", "--dim", "3", "--trials", "1"]
        )
        assert rc == 0 and err == ""
        rows = fault_sweep.format_rows(fault_sweep.run(d=3, trials=1))
        assert out == "".join(f"{row}\n" for row in rows)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--seed", "3"],
            ["--threshold", "2.0"],
            ["--variant", "4way"],
            ["--rate", "0.5"],
            ["--duplicate-rate", "0.1"],
            ["--corrupt-rate", "0.1"],
            ["--delay-rate", "0.1"],
            ["--max-delay", "8"],
            ["--kill-tile", "4"],
            ["--kill-at", "50"],
            ["--fault-seed", "9"],
            ["--plan", "/no/such.json"],
            ["--obs"],
            ["--trace-out", "tdir"],
        ],
        ids=lambda flags: flags[0],
    )
    def test_sweep_rejects_a_flag_it_does_not_read(
        self, flags, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        rc, out, err = run_cli(
            capsys, ["faults", "--sweep", "--dim", "3", "--trials", "1", *flags]
        )
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flags[0] in err
        assert not (tmp_path / "tdir").exists()

    def test_sweep_names_every_unread_flag(self, capsys):
        rc, _, err = run_cli(
            capsys,
            ["faults", "--sweep", "--dim", "3", "--trials", "1",
             "--rate", "0.5", "--plan", "/no/such.json", "--obs"],
        )
        assert rc == 2
        assert all(f in err for f in ("--rate", "--plan", "--obs"))


class TestFaultsErrorPaths:
    def test_missing_plan_file(self, capsys):
        rc, _, err = run_cli(
            capsys, ["faults", "--plan", "/no/such/plan.json"]
        )
        assert rc == 2
        assert "invalid fault plan" in err
        assert "Traceback" not in err

    def test_malformed_plan_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc, _, err = run_cli(capsys, ["faults", "--plan", str(path)])
        assert rc == 2
        assert "invalid fault plan" in err

    def test_plan_with_unknown_field(self, capsys, tmp_path):
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps({"seed": 1, "gremlins": True}))
        rc, _, err = run_cli(capsys, ["faults", "--plan", str(path)])
        assert rc == 2
        assert "gremlins" in err

    def test_out_of_range_rate(self, capsys):
        rc, _, err = run_cli(capsys, ["faults", "--rate", "1.5"])
        assert rc == 2
        assert "must be in [0, 1]" in err

    def test_rates_summing_past_one(self, capsys):
        rc, _, err = run_cli(
            capsys,
            ["faults", "--rate", "0.6", "--duplicate-rate", "0.6"],
        )
        assert rc == 2
        assert "must be <= 1" in err


class TestTraceOutErrorPaths:
    def test_convergence_bad_trace_out(self, capsys, tmp_path):
        """--trace-out pointing *under a file* cannot be created."""
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file")
        rc, _, err = run_cli(
            capsys,
            [
                "convergence", "--dim", "3", "--trials", "1",
                "--trace-out", str(blocker / "sub"),
            ],
        )
        assert rc == 2
        assert "cannot write trace outputs" in err
        assert "Traceback" not in err

    def test_trace_command_bad_out(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file")
        rc, _, err = run_cli(
            capsys,
            [
                "trace", "convergence", "--dim", "3", "--trials", "1",
                "--out", str(blocker / "sub"),
            ],
        )
        assert rc == 2
        assert "cannot write trace outputs" in err

    def test_faults_bad_trace_out(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file")
        rc, _, err = run_cli(
            capsys,
            [
                "faults", "--dim", "3", "--trials", "1", "--rate", "0.02",
                "--trace-out", str(blocker / "sub"),
            ],
        )
        assert rc == 2
        assert "cannot write trace outputs" in err


@pytest.mark.slow
class TestSanitizedIdentity:
    def test_rate_zero_identical_under_sanitizer(self):
        """The null-plan identity also holds with BLITZCOIN_SANITIZE=1
        (the sanitizer wraps every event either way)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["BLITZCOIN_SANITIZE"] = "1"
        argv_faults = [
            sys.executable, "-m", "repro",
            "faults", "--dim", "3", "--trials", "1", "--rate", "0.0",
        ]
        argv_conv = [
            sys.executable, "-m", "repro",
            "convergence", "--dim", "3", "--trials", "1",
        ]
        out_f = subprocess.run(
            argv_faults, capture_output=True, text=True, env=env, check=True
        ).stdout
        out_c = subprocess.run(
            argv_conv, capture_output=True, text=True, env=env, check=True
        ).stdout
        assert out_f == out_c
