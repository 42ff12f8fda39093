"""The ``blitzcoin-repro bench`` command group end to end."""

import json

import pytest

from repro.campaign.spec import canonical_json
from repro.cli import main
from repro.perf.artifact import (
    load_bench_artifact,
    strip_timing,
    write_bench_artifact,
)
from repro.perf.registry import REGISTRY, Benchmark

#: The fastest core benchmark — CLI behavior tests don't need the suite.
QUICK = ["--bench", "obs.overhead_off", "--reps", "1", "--warmup", "0"]


def _run_quick(tmp_path, name="bench.json"):
    out = tmp_path / name
    rc = main(
        ["bench", "run", "--suite", "core", *QUICK,
         "--no-profile", "-q", "--out", str(out)]
    )
    assert rc == 0
    return out


class TestBenchRun:
    def test_writes_valid_artifact(self, tmp_path, capsys):
        out = _run_quick(tmp_path)
        doc = load_bench_artifact(out)
        assert doc["suite"] == "core"
        assert doc["benchmarks"][0]["name"] == "obs.overhead_off"
        assert f"wrote {out}" in capsys.readouterr().out

    def test_identity_bytes_stable_across_two_runs(self, tmp_path):
        a = _run_quick(tmp_path, "a.json")
        b = _run_quick(tmp_path, "b.json")
        ida = canonical_json(strip_timing(load_bench_artifact(a)))
        idb = canonical_json(strip_timing(load_bench_artifact(b)))
        assert ida == idb

    def test_unknown_suite_is_rc2(self, tmp_path, capsys):
        rc = main(["bench", "run", "--suite", "nope", "-q",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_failed_check_is_one_error_line(self, tmp_path, capfd, monkeypatch):
        def shape_check():
            speedup = 1.2
            assert speedup > 100

        monkeypatch.setitem(
            REGISTRY._benchmarks,
            "test.failing",
            Benchmark(name="test.failing", run=shape_check, suites=("test",)),
        )
        out = tmp_path / "x.json"
        rc = main(["bench", "run", "--suite", "test", "--reps", "1",
                   "--warmup", "0", "--no-profile", "--out", str(out)])
        assert rc != 0
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error: benchmark 'test.failing' failed a check")
        assert "assert speedup > 100" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unknown_bench_is_rc2(self, tmp_path, capsys):
        rc = main(["bench", "run", "--bench", "nope", "-q",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestBenchCompare:
    def test_self_compare_rc0(self, tmp_path, capsys):
        out = _run_quick(tmp_path)
        rc = main(["bench", "compare", str(out), str(out)])
        assert rc == 0
        assert "no regressions" in capsys.readouterr().out

    def test_injected_slowdown_rc3(self, tmp_path, capsys):
        out = _run_quick(tmp_path)
        doc = load_bench_artifact(out)
        timing = doc["benchmarks"][0]["timing"]
        timing["per_rep_s"] = [v * 3 for v in timing["per_rep_s"]]
        timing["wall_s"] = {
            k: v * 3 for k, v in timing["wall_s"].items()
        }
        slow = tmp_path / "slow.json"
        write_bench_artifact(doc, slow)
        rc = main(["bench", "compare", str(out), str(slow)])
        assert rc == 3
        assert "REGRESSED" in capsys.readouterr().out

    def test_corrupt_artifact_one_line_rc2(self, tmp_path, capsys):
        out = _run_quick(tmp_path)
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{definitely not json")
        rc = main(["bench", "compare", str(corrupt), str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_missing_artifact_rc2(self, tmp_path, capsys):
        out = _run_quick(tmp_path)
        rc = main(
            ["bench", "compare", str(tmp_path / "absent.json"), str(out)]
        )
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_wall_rel_flag_tightens_gate(self, tmp_path):
        out = _run_quick(tmp_path)
        doc = load_bench_artifact(out)
        timing = doc["benchmarks"][0]["timing"]
        timing["per_rep_s"] = [v * 1.3 for v in timing["per_rep_s"]]
        timing["wall_s"] = {
            k: v * 1.3 for k, v in timing["wall_s"].items()
        }
        mild = tmp_path / "mild.json"
        write_bench_artifact(doc, mild)
        # +30% passes the default 50% tolerance...
        assert main(["bench", "compare", str(out), str(mild)]) == 0
        # ...and trips a 10% tolerance with no absolute floor.
        assert main(
            ["bench", "compare", str(out), str(mild),
             "--wall-rel", "0.1", "--wall-abs", "0"]
        ) == 3


class TestBenchListAndProfile:
    def test_list_names_core_suite(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "engine.convergence" in out
        assert "suites=core" in out

    def test_profile_prints_phases_and_writes_trace(self, tmp_path, capsys):
        trace = tmp_path / "phase.json"
        rc = main(
            ["bench", "profile", "engine.convergence",
             "--trace-out", str(trace)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "phase profile:" in out
        assert "engine" in out
        from repro.obs.export import validate_chrome_trace

        assert validate_chrome_trace(json.loads(trace.read_text())) == []

    def test_profile_refuses_unprofileable(self, capsys):
        rc = main(["bench", "profile", "obs.overhead_on"])
        assert rc == 2
        assert "not profileable" in capsys.readouterr().err

    def test_profile_unknown_name_rc2(self, capsys):
        assert main(["bench", "profile", "nope"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err
