"""Tests for CSV export and post-processing."""

import json

import numpy as np
import pytest

from repro.noc.behavioral import BehavioralNoc
from repro.noc.packet import MessageType, Packet, PacketStats
from repro.noc.topology import MeshTopology
from repro.obs.metrics import MetricsRegistry
from repro.report.csv_export import (
    CsvExportError,
    export_figure,
    export_packet_stats,
    export_rows,
    export_soc_run,
    fig03_series,
    packet_stats_rows,
    read_csv,
)
from repro.report.post_process import (
    ascii_chart,
    extract_execution_times,
    extract_response_times,
    reconstruct_power_trace,
    throughput_per_watt,
)
from repro.sim.kernel import Simulator
from repro.soc.executor import WorkloadExecutor
from repro.soc.pm import PMKind, build_pm
from repro.soc.presets import soc_3x3
from repro.soc.soc import Soc
from repro.workloads.scenarios import build_parallel


@pytest.fixture(scope="module")
def small_run():
    soc = Soc(soc_3x3())
    pm = build_pm(PMKind.BLITZCOIN, soc, 120.0)
    graph = build_parallel(
        [("f", "FFT", 60_000), ("v", "Viterbi", 50_000)]
    )
    result = WorkloadExecutor(soc, graph, pm).run()
    return result, soc.config


class TestExportRows:
    def test_roundtrip(self, tmp_path):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5}]
        path = export_rows(tmp_path / "x.csv", rows)
        back = read_csv(path)
        assert back[0]["a"] == "1"
        assert back[1]["b"] == "4.5"

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(CsvExportError):
            export_rows(tmp_path / "x.csv", [])

    def test_bad_fieldnames_rejected(self, tmp_path):
        with pytest.raises(CsvExportError):
            export_rows(tmp_path / "x.csv", [{"a": 1}], fieldnames=["z"])

    def test_creates_parent_dirs(self, tmp_path):
        path = export_rows(tmp_path / "deep/nested/x.csv", [{"a": 1}])
        assert path.exists()


class TestExportFigure:
    def test_one_csv_per_series_plus_manifest(self, tmp_path):
        series = {
            "1-way": [{"d": 4, "cycles": 100}],
            "4-way": [{"d": 4, "cycles": 80}],
        }
        written = export_figure(
            tmp_path, "fig03", series, description="convergence"
        )
        assert set(written) == {"1-way", "4-way", "__manifest__"}
        manifest = json.loads(written["__manifest__"].read_text())
        assert manifest["figure"] == "fig03"
        assert set(manifest["series"]) == {"1-way", "4-way"}

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(CsvExportError):
            export_figure(tmp_path, "figX", {})

    def test_fig03_series_flattening(self):
        import repro.experiments.fig03_convergence as f3

        r = f3.run(dims=(3,), trials=1)
        series = fig03_series(r)
        assert set(series) == {"1-way", "4-way"}
        assert series["1-way"][0]["n_tiles"] == 9


class TestExportSocRun:
    def test_exports_power_tasks_freq_meta(self, tmp_path, small_run):
        run, _ = small_run
        written = export_soc_run(tmp_path, run, tag="t")
        assert set(written) >= {"power", "tasks", "meta"}
        power = read_csv(written["power"])
        assert float(power[-1]["time_us"]) > 0
        meta = json.loads(written["meta"].read_text())
        assert meta["budget_mw"] == 120.0


def _stats_with_traffic() -> PacketStats:
    # Two hops plus a two-cycle router delay: every packet takes 4 cycles.
    sim = Simulator()
    noc = BehavioralNoc(sim, MeshTopology(3, 1), router_delay=2)
    for kind, count in (
        (MessageType.COIN_STATUS, 3),
        (MessageType.COIN_UPDATE, 2),
        (MessageType.PM_SET, 1),
    ):
        for _ in range(count):
            noc.send(Packet(src=0, dst=2, msg_type=kind))
    sim.run()
    return noc.stats


class TestPacketStatsExport:
    def test_rows_have_per_kind_and_total(self):
        rows = packet_stats_rows(_stats_with_traffic())
        by_kind = {r["kind"]: r for r in rows}
        assert by_kind["coin_status"]["injected"] == 3
        assert by_kind["coin_update"]["injected"] == 2
        assert by_kind["__total__"]["injected"] == 6
        assert by_kind["__total__"]["total_hops"] == 12
        assert by_kind["__total__"]["mean_latency_cycles"] == 4.0
        assert rows[-1]["kind"] == "__total__"

    def test_csv_roundtrip(self, tmp_path):
        path = export_packet_stats(
            tmp_path / "pkts.csv", _stats_with_traffic()
        )
        back = read_csv(path)
        assert back[0]["kind"] == "coin_status"
        assert back[-1]["injected"] == "6"

    def test_publish_into_metrics_registry(self):
        registry = MetricsRegistry()
        stats = _stats_with_traffic()
        stats.publish(registry, time=100)
        assert registry.value("noc.stats.injected") == 6
        assert registry.value("noc.stats.delivered") == 6
        assert registry.value("noc.stats.coin_packets") == 5
        assert (
            registry.value("noc.stats.packets", kind="coin_status") == 3
        )
        assert registry.value("noc.stats.mean_latency_cycles") == 4.0

    def test_publish_overwrites_not_accumulates(self):
        registry = MetricsRegistry()
        stats = _stats_with_traffic()
        stats.publish(registry, time=100)
        stats.publish(registry, time=200)
        assert registry.value("noc.stats.injected") == 6
        gauge = registry.get("noc.stats.injected")
        assert gauge.last_time == 200


class TestPostProcess:
    def test_reconstruction_matches_recorded_power(self, small_run):
        """The paper's frequency-based reconstruction must agree with
        the directly recorded power samples."""
        run, config = small_run
        rebuilt = reconstruct_power_trace(run, config, n_points=100)
        times_us, recorded = run.power_series(100)
        # Allow small discrepancies at transition sampling boundaries.
        diff = np.abs(rebuilt["total_mw"] - recorded)
        assert np.median(diff) < 2.0
        assert float(np.mean(rebuilt["total_mw"])) == pytest.approx(
            float(np.mean(recorded)), rel=0.1
        )

    def test_execution_times_sorted_and_positive(self, small_run):
        run, _ = small_run
        rows = extract_execution_times(run)
        assert len(rows) == 2
        starts = [r[1] for r in rows]
        assert starts == sorted(starts)
        assert all(r[2] > 0 for r in rows)

    def test_response_summary(self, small_run):
        run, _ = small_run
        summary = extract_response_times(run)
        assert summary["count"] == len(run.response_times_cycles)
        if summary["count"]:
            assert summary["min_us"] <= summary["mean_us"] <= summary["max_us"]

    def test_throughput_per_watt_positive(self, small_run):
        run, _ = small_run
        assert throughput_per_watt(run) > 0

    def test_ascii_chart_shape(self):
        chart = ascii_chart([1, 5, 3, 8, 2], width=10, height=4, cap=6.0)
        lines = chart.splitlines()
        assert len(lines) == 5
        assert any("cap" in line for line in lines)

    def test_ascii_chart_downsamples_long_series(self):
        chart = ascii_chart(list(range(1000)), width=20, height=4)
        assert len(chart.splitlines()[0]) < 60

    def test_ascii_chart_empty(self):
        assert "empty" in ascii_chart([])
