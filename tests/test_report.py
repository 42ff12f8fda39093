"""Tests for CSV export and post-processing."""

import csv
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
    export_rows,
    export_soc_run,
    fig03_series,
)
from repro.report.post_process import (
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
        with path.open(newline="") as fh:
            back = list(csv.DictReader(fh))
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
        with written["power"].open(newline="") as fh:
            power = list(csv.DictReader(fh))
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

    def test_throughput_per_watt_positive(self, small_run):
        run, _ = small_run
        assert throughput_per_watt(run) > 0
