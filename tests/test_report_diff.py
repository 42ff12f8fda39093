"""Regression diffing: threshold policy, classification, rendering.

The property that protects CI is ``diff(A, A)`` being empty for *any*
report — if self-diff ever regressed, every green build would be one
flaky float away from red.  That property is checked both on real
reports and with hypothesis over synthetic summaries.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.report.diff import (
    DEFAULT_THRESHOLDS,
    DiffError,
    ThresholdRule,
    Thresholds,
    diff_reports,
    flat_metrics,
    format_diff_table,
    load_thresholds,
)
from repro.report.run_report import RunReport


def _report(summary, *, kind="convergence", alert_counts=None, label="r"):
    return RunReport(
        kind=kind,
        label=label,
        config={"d": 3},
        summary=summary,
        alert_counts=alert_counts or {},
    )


BASE = _report(
    {
        "trials": 4,
        "converged": 4,
        "convergence_rate": 1.0,
        "cycles": {"mean": 200.0, "p99": 400.0},
        "packets": {"mean": 300.0},
    },
    alert_counts={"starvation": 0, "convergence_stall": 1},
)


class TestThresholdRule:
    def test_increase_direction(self):
        rule = ThresholdRule(rel=0.05)
        assert rule.judge(100.0, 104.0) == "ok"
        assert rule.judge(100.0, 106.0) == "regressed"
        assert rule.judge(100.0, 94.0) == "improved"

    def test_decrease_direction(self):
        rule = ThresholdRule(rel=0.05, direction="decrease")
        assert rule.judge(1.0, 0.9) == "regressed"
        assert rule.judge(0.9, 1.0) == "improved"

    def test_abs_floor_swallows_noise(self):
        rule = ThresholdRule(rel=0.0, abs=0.5)
        assert rule.judge(0.0, 0.4) == "ok"
        assert rule.judge(0.0, 0.6) == "regressed"

    def test_zero_tolerance(self):
        rule = ThresholdRule(rel=0.0, abs=0.0)
        assert rule.judge(0.0, 1.0) == "regressed"
        assert rule.judge(1.0, 1.0) == "ok"

    def test_validation(self):
        with pytest.raises(DiffError, match="direction"):
            ThresholdRule(direction="sideways")
        with pytest.raises(DiffError, match=">= 0"):
            ThresholdRule(rel=-0.1)


class TestDefaultPolicy:
    def test_zero_tolerance_on_alerts(self):
        rule = DEFAULT_THRESHOLDS.rule_for("alerts.starvation")
        assert rule.rel == 0.0 and rule.abs == 0.0

    def test_rate_metrics_regress_downward(self):
        for metric in ("convergence_rate", "budget_utilization"):
            assert DEFAULT_THRESHOLDS.rule_for(metric).direction == "decrease"
        assert DEFAULT_THRESHOLDS.rule_for("cycles.mean").direction == "increase"


class TestThresholds:
    def test_exact_beats_glob_beats_default(self):
        policy = Thresholds(
            default=ThresholdRule(rel=0.05),
            metrics={
                "cycles.*": ThresholdRule(rel=0.10),
                "cycles.p99": ThresholdRule(rel=0.20),
            },
        )
        assert policy.rule_for("cycles.p99").rel == 0.20
        assert policy.rule_for("cycles.mean").rel == 0.10
        assert policy.rule_for("packets.mean").rel == 0.05

    def test_longest_glob_wins(self):
        policy = Thresholds(
            metrics={
                "a.*": ThresholdRule(rel=0.1),
                "a.b.*": ThresholdRule(rel=0.2),
            }
        )
        assert policy.rule_for("a.b.c").rel == 0.2
        assert policy.rule_for("a.z").rel == 0.1


class TestLoadThresholds:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(
            json.dumps(
                {
                    "default": {"rel": 0.1},
                    "metrics": {
                        "alerts.*": {"rel": 0.0, "abs": 0.0},
                        "convergence_rate": {"direction": "decrease"},
                    },
                }
            )
        )
        policy = load_thresholds(path)
        assert policy.default.rel == 0.1
        assert policy.rule_for("alerts.starvation").abs == 0.0
        # metric rules inherit unset fields from the file's default
        assert policy.rule_for("convergence_rate").rel == 0.1

    def test_missing_file(self, tmp_path):
        with pytest.raises(DiffError, match="not found"):
            load_thresholds(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("{nope")
        with pytest.raises(DiffError, match="invalid thresholds JSON"):
            load_thresholds(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"defualt": {}}))
        with pytest.raises(DiffError, match="unknown top-level keys"):
            load_thresholds(path)
        path.write_text(
            json.dumps({"metrics": {"x": {"relative": 0.1}}})
        )
        with pytest.raises(DiffError, match="unknown threshold keys"):
            load_thresholds(path)


class TestDiffReports:
    def test_self_diff_is_clean(self):
        diff = diff_reports(BASE, BASE)
        assert not diff.regressed
        assert all(r.status == "ok" for r in diff.rows)

    def test_seeded_regression_detected(self):
        worse = _report(
            {
                "trials": 4,
                "converged": 3,
                "convergence_rate": 0.75,
                "cycles": {"mean": 240.0, "p99": 400.0},
                "packets": {"mean": 300.0},
            },
            alert_counts={"starvation": 2, "convergence_stall": 1},
        )
        diff = diff_reports(BASE, worse)
        regressed = {r.metric for r in diff.regressions}
        assert regressed == {
            "converged",
            "convergence_rate",
            "cycles.mean",
            "alerts.starvation",
            "alerts.total",
        }

    def test_improvement_is_not_a_regression(self):
        better = _report(
            {
                "trials": 4,
                "converged": 4,
                "convergence_rate": 1.0,
                "cycles": {"mean": 150.0, "p99": 400.0},
                "packets": {"mean": 300.0},
            },
            alert_counts={"starvation": 0, "convergence_stall": 1},
        )
        diff = diff_reports(BASE, better)
        assert not diff.regressed
        assert [r.metric for r in diff.rows if r.status == "improved"] == [
            "cycles.mean"
        ]

    def test_missing_alert_monitor_counts_as_zero(self):
        stripped = _report(dict(BASE.summary), alert_counts={})
        diff = diff_reports(BASE, stripped)
        rows = {r.metric: r for r in diff.rows}
        assert rows["alerts.starvation"].status == "ok"
        # the stall alert disappeared: an improvement, not "removed"
        assert rows["alerts.convergence_stall"].status == "improved"

    def test_added_and_removed_summary_metrics(self):
        other = _report({**BASE.summary, "energy_mj": 1.0})
        del other.summary["trials"]
        rows = {r.metric: r for r in diff_reports(BASE, other).rows}
        assert rows["energy_mj"].status == "added"
        assert rows["trials"].status == "removed"

    def test_kind_mismatch_rejected(self):
        soc = _report({"makespan_us": 1.0}, kind="soc")
        with pytest.raises(DiffError, match="cannot diff"):
            diff_reports(BASE, soc)

    def test_custom_thresholds_override_default(self):
        worse = _report({**BASE.summary, "cycles": {"mean": 240.0, "p99": 400.0}})
        lax = Thresholds(default=ThresholdRule(rel=0.5))
        assert diff_reports(BASE, worse, lax).regressed is False
        assert diff_reports(BASE, worse).regressed is True


class TestFlatMetrics:
    def test_alert_totals_and_nesting(self):
        flat = flat_metrics(BASE)
        assert flat["cycles.p99"] == 400.0
        assert flat["alerts.starvation"] == 0.0
        assert flat["alerts.total"] == 1.0

    def test_non_numeric_leaves_skipped(self):
        report = _report({"trials": 2, "note": "hi", "tags": [1, 2]})
        flat = flat_metrics(report)
        assert "note" not in flat and "tags" not in flat


class TestFormatDiffTable:
    def test_marks_and_footer(self):
        worse = _report(
            {**BASE.summary, "cycles": {"mean": 240.0, "p99": 400.0}}
        )
        lines = format_diff_table(diff_reports(BASE, worse))
        assert any(l.startswith("! cycles.mean") for l in lines)
        assert lines[-1].startswith("REGRESSED: ")
        clean = format_diff_table(diff_reports(BASE, BASE))
        assert clean[-1] == "no regressions"

    def test_only_changed_filters_ok_rows(self):
        lines = format_diff_table(
            diff_reports(BASE, BASE), only_changed=True
        )
        # header + footer only: every row is "ok"
        assert len(lines) == 3


_SUMMARIES = st.dictionaries(
    st.sampled_from(["a", "b", "c", "rate", "cycles"]),
    st.one_of(
        st.integers(min_value=-10_000, max_value=10_000),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.dictionaries(
            st.sampled_from(["mean", "p99"]),
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            max_size=2,
        ),
    ),
    max_size=5,
)


class TestSelfDiffProperty:
    @given(summary=_SUMMARIES, stalls=st.integers(min_value=0, max_value=9))
    @settings(max_examples=60, deadline=None)
    def test_any_report_self_diffs_clean(self, summary, stalls):
        report = _report(
            summary, alert_counts={"convergence_stall": stalls}
        )
        diff = diff_reports(report, report)
        assert not diff.regressed
        assert all(r.status == "ok" for r in diff.rows)
        assert format_diff_table(diff)[-1] == "no regressions"
