"""Tests for tile specs, SoC configs, and the three presets."""

import pytest

from repro.soc.presets import soc_3x3, soc_4x4, soc_6x6_chip
from repro.soc.tile import (
    SocConfig,
    SocConfigError,
    TileKind,
    TileSpec,
)


class TestTileSpec:
    def test_accelerator_requires_class(self):
        with pytest.raises(SocConfigError):
            TileSpec(kind=TileKind.ACCELERATOR)

    def test_unknown_accelerator_class_rejected(self):
        with pytest.raises(SocConfigError):
            TileSpec(kind=TileKind.ACCELERATOR, acc_class="TPU")

    def test_non_accelerator_cannot_have_class(self):
        with pytest.raises(SocConfigError):
            TileSpec(kind=TileKind.CPU, acc_class="FFT")

    def test_managed_accelerator_flag(self):
        managed = TileSpec(kind=TileKind.ACCELERATOR, acc_class="FFT")
        unmanaged = TileSpec(
            kind=TileKind.ACCELERATOR, acc_class="FFT", pm_enabled=False
        )
        assert managed.is_managed_accelerator
        assert not unmanaged.is_managed_accelerator


class TestSocConfig:
    def test_cpu_required(self):
        with pytest.raises(SocConfigError):
            SocConfig(
                name="x",
                width=2,
                height=2,
                tiles={0: TileSpec(kind=TileKind.MEM)},
            )

    def test_tile_id_bounds_checked(self):
        with pytest.raises(SocConfigError):
            SocConfig(
                name="x",
                width=2,
                height=2,
                tiles={5: TileSpec(kind=TileKind.CPU)},
            )

    def test_unlisted_slots_default_to_aux(self):
        cfg = SocConfig(
            name="x",
            width=2,
            height=2,
            tiles={0: TileSpec(kind=TileKind.CPU)},
        )
        assert cfg.spec(3).kind is TileKind.AUX


class TestPresets:
    def test_3x3_inventory_matches_fig12(self):
        cfg = soc_3x3()
        assert cfg.topology.n_tiles == 9
        classes = [cfg.class_of(t) for t in cfg.managed_accelerators()]
        assert sorted(classes) == sorted(
            ["FFT", "FFT", "FFT", "Viterbi", "Viterbi", "NVDLA"]
        )

    def test_4x4_inventory_matches_fig12(self):
        cfg = soc_4x4()
        assert cfg.topology.n_tiles == 16
        assert len(cfg.managed_accelerators()) == 13
        classes = [cfg.class_of(t) for t in cfg.managed_accelerators()]
        assert classes.count("GEMM") == 5
        assert classes.count("Conv2D") == 4
        assert classes.count("Vision") == 4

    def test_6x6_chip_matches_fig15(self):
        cfg = soc_6x6_chip()
        assert cfg.topology.n_tiles == 36
        # 10-tile PM cluster.
        assert len(cfg.managed_accelerators()) == 10
        # 8 accelerators outside the PM domain, including FFT No-PM.
        unmanaged = set(cfg.accelerators()) - set(cfg.managed_accelerators())
        assert len(unmanaged) == 8
        labels = {cfg.spec(t).label for t in unmanaged}
        assert "fft-no-pm" in labels
        # 4 CPUs, 4 memory tiles, 4 scratchpads, 1 IO.
        kinds = [s.kind for s in cfg.tiles.values()]
        assert kinds.count(TileKind.CPU) == 4
        assert kinds.count(TileKind.MEM) == 4
        assert kinds.count(TileKind.SCRATCHPAD) == 4
        assert kinds.count(TileKind.IO) == 1

    def test_pm_cluster_can_host_the_7_acc_workload(self):
        cfg = soc_6x6_chip()
        classes = [cfg.class_of(t) for t in cfg.managed_accelerators()]
        assert classes.count("NVDLA") >= 1
        assert classes.count("FFT") >= 2
        assert classes.count("Viterbi") >= 4

    def test_tiles_of_class(self):
        cfg = soc_3x3()
        assert len(cfg.tiles_of_class("FFT")) == 3
        assert cfg.tiles_of_class("GEMM") == []

    def test_class_of_non_accelerator_rejected(self):
        cfg = soc_3x3()
        with pytest.raises(SocConfigError):
            cfg.class_of(cfg.cpu_tile())
