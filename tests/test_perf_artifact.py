"""BENCH_*.json artifact: schema, canonical bytes, threshold compare."""

import json

import pytest

from repro.campaign.spec import canonical_json
from repro.perf.artifact import (
    BENCH_SCHEMA,
    bench_artifact,
    bench_thresholds,
    compare_bench_artifacts,
    env_fingerprint,
    flat_bench_metrics,
    load_bench_artifact,
    strip_timing,
    validate_bench_artifact,
    write_bench_artifact,
)
from repro.perf.harness import BenchResult
from repro.perf.registry import PerfError


def _result(name="demo", per_rep=(0.01, 0.02, 0.03), **overrides):
    base = dict(
        name=name,
        units="seconds",
        params={"n": 4},
        reps=len(per_rep),
        warmup=1,
        metrics={"value": 8.0},
        counters={"engine.exchanges_initiated": 42},
        per_rep_s=list(per_rep),
        peak_rss_kb=1000,
        phases={"engine": 0.008, "harness": 0.002},
        profile_total_s=0.01,
    )
    base.update(overrides)
    return BenchResult(**base)


def _doc(**kw):
    return bench_artifact("core", [_result()], **kw)


class TestArtifact:
    def test_round_trip(self, tmp_path):
        doc = _doc()
        path = tmp_path / "BENCH_core.json"
        write_bench_artifact(doc, path)
        loaded = load_bench_artifact(path)
        assert loaded == json.loads(canonical_json(doc))
        assert loaded["schema"] == BENCH_SCHEMA
        assert loaded["benchmarks"][0]["timing"]["wall_s"]["min"] == 0.01

    def test_canonical_bytes_are_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_bench_artifact(_doc(), a)
        write_bench_artifact(_doc(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_identity_stable_across_runs_with_different_timing(self):
        # Same benchmark, different wall times: strip_timing must agree
        # byte-for-byte — the CI determinism check.
        run1 = bench_artifact("core", [_result(per_rep=(0.01, 0.02))])
        run2 = bench_artifact(
            "core",
            [_result(per_rep=(0.5, 0.9), peak_rss_kb=9999,
                     phases={"noc": 1.0}, profile_total_s=1.0)],
        )
        assert canonical_json(strip_timing(run1)) == canonical_json(
            strip_timing(run2)
        )
        # ...while the full artifacts of course differ.
        assert canonical_json(run1) != canonical_json(run2)

    def test_no_timestamps_anywhere(self):
        text = canonical_json(_doc())
        for needle in ("timestamp", "date", "created"):
            assert needle not in text

    def test_env_fingerprint_fields(self):
        env = env_fingerprint()
        assert set(env) >= {"python", "platform", "cpu_count", "git_sha"}
        assert env_fingerprint() == env  # stable within a process

    def test_empty_suite_rejected(self):
        with pytest.raises(PerfError, match="no benchmark results"):
            bench_artifact("core", [])

    def test_non_finite_metric_rejected(self):
        with pytest.raises(PerfError, match="non-finite"):
            bench_artifact(
                "core", [_result(metrics={"bad": float("inf")})]
            )


class TestValidation:
    def test_valid_doc_has_no_problems(self):
        assert validate_bench_artifact(_doc()) == []

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda d: d.update(schema=99), "unsupported schema"),
            (lambda d: d.update(kind="report"), "kind"),
            (lambda d: d.update(suite=""), "suite"),
            (lambda d: d.update(env=None), "env"),
            (lambda d: d.update(benchmarks=[]), "benchmarks"),
            (
                lambda d: d["benchmarks"][0].pop("timing"),
                "timing",
            ),
            (
                lambda d: d["benchmarks"][0]["timing"].pop("wall_s"),
                "wall_s",
            ),
        ],
    )
    def test_defects_reported(self, mutate, needle):
        doc = _doc()
        mutate(doc)
        problems = validate_bench_artifact(doc)
        assert problems and needle in problems[0]

    def test_duplicate_benchmark_names_rejected(self):
        doc = bench_artifact("core", [_result(), _result()])
        assert any(
            "duplicate" in p for p in validate_bench_artifact(doc)
        )

    def test_load_rejects_corrupt_and_missing(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(PerfError, match="corrupt"):
            load_bench_artifact(bad)
        with pytest.raises(PerfError, match="not found"):
            load_bench_artifact(tmp_path / "absent.json")
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"schema": 1, "kind": "report"}')
        with pytest.raises(PerfError, match="invalid"):
            load_bench_artifact(wrong)

    def test_write_refuses_invalid(self, tmp_path):
        with pytest.raises(PerfError, match="refusing"):
            write_bench_artifact({"schema": 99}, tmp_path / "x.json")


class TestCompare:
    def test_flat_metrics_shape(self):
        flat = flat_bench_metrics(_doc())
        assert flat["demo.wall_s.min"] == 0.01
        assert flat["demo.peak_rss_kb"] == 1000.0
        assert flat["demo.metrics.value"] == 8.0
        assert flat["demo.counters.engine.exchanges_initiated"] == 42.0
        assert flat["demo.phase_s.engine"] == 0.008
        assert flat["demo.reps"] == 3.0

    def test_self_compare_is_clean(self):
        doc = _doc()
        assert not compare_bench_artifacts(doc, doc).regressed

    def test_two_x_slowdown_regresses(self):
        base = _doc()
        slow = bench_artifact(
            "core", [_result(per_rep=(0.02, 0.04, 0.06))]
        )
        diff = compare_bench_artifacts(base, slow)
        regressed = {r.metric for r in diff.regressions}
        assert "demo.wall_s.median" in regressed
        # Identity metrics did not move, so they stay ok.
        assert "demo.metrics.value" not in regressed

    def test_timing_jitter_within_tolerance_is_ok(self):
        base = _doc()
        jitter = bench_artifact(
            "core", [_result(per_rep=(0.012, 0.024, 0.036))]  # +20%
        )
        assert not compare_bench_artifacts(base, jitter).regressed

    def test_identity_drift_regresses_exactly(self):
        base = _doc()
        drift = bench_artifact(
            "core",
            [_result(metrics={"value": 9.0},
                     counters={"engine.exchanges_initiated": 43})],
        )
        diff = compare_bench_artifacts(base, drift)
        regressed = {r.metric for r in diff.regressions}
        assert "demo.metrics.value" in regressed
        assert "demo.counters.engine.exchanges_initiated" in regressed

    def test_faster_is_improvement_not_regression(self):
        base = _doc()
        fast = bench_artifact(
            "core", [_result(per_rep=(0.002, 0.004, 0.006))]
        )
        diff = compare_bench_artifacts(base, fast)
        assert not diff.regressed
        assert any(
            r.metric.startswith("demo.wall_s")
            for r in diff.rows
            if r.status == "improved"
        )

    def test_suite_mismatch_rejected(self):
        a = bench_artifact("core", [_result()])
        b = bench_artifact("other", [_result()])
        with pytest.raises(PerfError, match="cannot compare"):
            compare_bench_artifacts(a, b)

    def test_thresholds_split_timing_from_identity(self):
        policy = bench_thresholds(
            ["x.wall_s.min", "x.phase_s.engine", "x.peak_rss_kb",
             "x.metrics.value", "x.counters.n"],
            wall_rel=0.5,
        )
        assert policy.rule_for("x.wall_s.min").rel == 0.5
        assert policy.rule_for("x.phase_s.engine").rel == 0.5
        assert policy.rule_for("x.peak_rss_kb").rel == 0.5
        assert policy.rule_for("x.metrics.value").rel == 0.0
        assert policy.rule_for("x.counters.n").rel == 0.0
