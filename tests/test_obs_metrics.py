"""Tests for the repro.obs metrics registry."""

import ast
import re
from pathlib import Path

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    label_key,
)


class TestLabelKey:
    def test_sorted_and_stringified(self):
        assert label_key({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))

    def test_empty(self):
        assert label_key({}) == ()


class TestCounter:
    def test_inc_accumulates_and_tracks_times(self):
        c = Counter("n")
        c.inc(10)
        c.inc(20, 5)
        assert c.total == 6
        assert c.first_time == 10
        assert c.last_time == 20

    def test_negative_increment_rejected(self):
        with pytest.raises(MetricsError):
            Counter("n").inc(0, -1)

    def test_qualified_name_renders_labels(self):
        c = Counter("noc.packets", label_key({"kind": "coin_status"}))
        assert c.qualified_name == "noc.packets{kind=coin_status}"


class TestGauge:
    def test_last_value_wins_with_min_max(self):
        g = Gauge("p")
        g.set(1, 5.0)
        g.set(2, 3.0)
        g.set(3, 9.0)
        assert g.value == 9.0
        assert g.min_value == 3.0
        assert g.max_value == 9.0
        assert g.samples == 3
        assert g.last_time == 3


class TestHistogram:
    def test_value_buckets_inclusive_upper_edges(self):
        h = Histogram("lat", bounds=(1, 2, 4))
        for v in (1, 1, 2, 3, 4, 100):
            h.observe(0, v)
        # counts: <=1: 2, <=2: 1, <=4: 2, overflow: 1
        assert h.counts == [2, 1, 2, 1]
        assert h.count == 6
        assert h.max_value == 100

    def test_bucket_rows_include_overflow(self):
        h = Histogram("lat", bounds=(1, 2))
        h.observe(0, 7)
        assert h.bucket_rows() == [("<= 1", 0), ("<= 2", 0), ("> 2", 1)]

    def test_mean(self):
        h = Histogram("lat")
        h.observe(0, 2)
        h.observe(0, 4)
        assert h.mean == 3.0
        assert Histogram("empty").mean == 0.0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(MetricsError):
            Histogram("bad", bounds=(4, 2))


class TestHistogramPercentile:
    def test_empty_returns_none(self):
        h = Histogram("lat", bounds=(1, 2, 4))
        assert h.percentile(0.5) is None
        assert h.quantile_summary()["p99"] is None

    def test_single_observation_all_quantiles_collapse(self):
        h = Histogram("lat", bounds=(1, 10, 100))
        h.observe(0, 7)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert h.percentile(q) == 7.0

    def test_q0_is_min_and_q1_is_max(self):
        h = Histogram("lat", bounds=(1, 10, 100))
        for v in (3, 42, 80):
            h.observe(0, v)
        assert h.percentile(0.0) == 3.0
        assert h.percentile(1.0) == 80.0

    def test_bucket_resolution_median(self):
        h = Histogram("lat", bounds=(10, 20, 40))
        for v in (1, 2, 15, 16, 17, 35):
            h.observe(0, v)
        # rank 3 lands in the <=20 bucket.
        assert h.percentile(0.5) == 20.0

    def test_single_bucket_everything_clamps_to_observed_range(self):
        h = Histogram("lat", bounds=(1000,))
        for v in (5, 9):
            h.observe(0, v)
        # The bucket bound (1000) exceeds anything seen; clamp to max.
        assert h.percentile(0.5) == 9.0
        assert h.percentile(0.9) == 9.0

    def test_overflow_bucket_reports_max(self):
        h = Histogram("lat", bounds=(10,))
        for v in (5, 500, 900):
            h.observe(0, v)
        assert h.percentile(0.99) == 900.0

    def test_out_of_range_q_rejected(self):
        h = Histogram("lat")
        for bad in (-0.1, 1.1):
            with pytest.raises(MetricsError):
                h.percentile(bad)

    def test_empty_quantile_summary_is_all_none_except_count(self):
        # The edge contract the bench harness relies on: an empty
        # series is absence (None), never a fabricated zero.
        summary = Histogram("lat", bounds=(1, 2)).quantile_summary()
        assert summary["count"] == 0.0
        for stat in ("mean", "min", "p50", "p90", "p99", "max"):
            assert summary[stat] is None, stat

    def test_single_sample_quantile_summary_is_exact(self):
        h = Histogram("lat", bounds=(1, 10, 100))
        h.observe(0, 7)
        summary = h.quantile_summary()
        assert summary["count"] == 1.0
        for stat in ("mean", "min", "p50", "p90", "p99", "max"):
            assert summary[stat] == 7.0, stat

    def test_non_finite_observations_rejected(self):
        h = Histogram("lat", bounds=(1, 2))
        h.observe(0, 1.5)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(MetricsError):
                h.observe(0, bad)
        # The rejected values must not have touched any state.
        assert h.count == 1
        assert h.total == 1.5
        assert h.quantile_summary()["max"] == 1.5

    def test_quantile_summary_keys(self):
        h = Histogram("lat", bounds=(10, 100))
        for v in (1, 2, 3, 50):
            h.observe(0, v)
        summary = h.quantile_summary()
        assert sorted(summary) == [
            "count", "max", "mean", "min", "p50", "p90", "p99",
        ]
        assert summary["count"] == 4.0
        assert summary["min"] == 1.0
        assert summary["max"] == 50.0
        assert summary["p50"] == 10.0


class TestMetricsRegistry:
    def test_get_or_create_is_stable(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.counter("a", k="1") is not r.counter("a", k="2")

    def test_type_clash_raises(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(MetricsError):
            r.gauge("x")
        with pytest.raises(MetricsError):
            r.histogram("x")

    def test_shortcuts(self):
        r = MetricsRegistry()
        r.inc("c", 5, 2)
        r.set_gauge("g", 5, 1.5)
        r.observe("h", 5, 10)
        assert r.value("c") == 2
        assert r.value("g") == 1.5
        assert r.value("h") == 1  # histogram reports its count
        assert r.value("absent") == 0

    def test_custom_histogram_bounds(self):
        r = MetricsRegistry()
        h = r.histogram("h", bounds=[10, 20])
        assert h.bounds == (10, 20)
        assert r.histogram("h") is h

    def test_instruments_sorted(self):
        r = MetricsRegistry()
        r.inc("b", 0)
        r.inc("a", 0)
        r.inc("a", 0, kind="z")
        names = [i.qualified_name for i in r.instruments()]
        assert names == ["a", "a{kind=z}", "b"]

    def test_as_rows_covers_all_kinds(self):
        r = MetricsRegistry()
        r.inc("c", 0)
        r.set_gauge("g", 0, 2.0)
        r.observe("h", 0, 3)
        kinds = {row["kind"] for row in r.as_rows()}
        assert kinds == {"counter", "gauge", "histogram"}

    def test_len(self):
        r = MetricsRegistry()
        assert len(r) == 0
        r.inc("a", 0)
        assert len(r) == 1


# --------------------------------------------------------------- name pinning
REPO = Path(__file__).resolve().parent.parent
#: Sink/registry methods whose first argument is a metric name.
METRIC_METHODS = ("inc", "set_gauge", "observe", "sample", "histogram")
METRIC_DOCS = ("docs/OBSERVABILITY.md", "docs/SERVICE.md")


def _metric_names():
    """name -> first ``path:line`` of every literal metric name in src."""
    names = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in METRIC_METHODS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                where = f"{path.relative_to(REPO)}:{node.lineno}"
                names.setdefault(node.args[0].value, where)
    return names


def _documented(name, docs, prefixes):
    """Verbatim, in Prometheus form, or under a ``prefix.*`` row."""
    verbatim = r"(?<![\w.])" + re.escape(name) + r"(?![\w]|\.\w)"
    prometheus = (
        r"(?<![\w.])"
        + re.escape(name.replace(".", "_"))
        + r"(?:_total|_bucket|_sum|_count)?(?!\w)"
    )
    return (
        re.search(verbatim, docs) is not None
        or re.search(prometheus, docs) is not None
        or any(name.startswith(prefix + ".") for prefix in prefixes)
    )


class TestMetricNamesArePinned:
    def test_every_metric_name_in_src_is_documented(self):
        names = _metric_names()
        # The scan sees sink counters and the service's own registry.
        assert "engine.exchanges_initiated" in names
        assert "serve.request_ms" in names
        docs = "\n".join((REPO / doc).read_text() for doc in METRIC_DOCS)
        prefixes = re.findall(r"`([a-z_][\w.]*)\.\*`", docs)
        missing = sorted(
            f"{name} ({where})"
            for name, where in names.items()
            if not _documented(name, docs, prefixes)
        )
        assert missing == [], f"undocumented metric names: {missing}"
