"""Tests for the thermal RC model and the hotspot governor."""

import numpy as np
import pytest

from repro.noc.topology import MeshTopology
from repro.soc.executor import WorkloadExecutor
from repro.soc.pm import BlitzCoinPM
from repro.soc.presets import soc_3x3
from repro.soc.soc import Soc
from repro.thermal.governor import ThermalGovernor
from repro.thermal.model import (
    ThermalConfig,
    ThermalError,
    ThermalGrid,
    simulate_run_thermals,
)
from repro.workloads.apps import autonomous_vehicle_parallel


class TestThermalConfig:
    def test_defaults_valid(self):
        cfg = ThermalConfig()
        assert cfg.r_vertical_k_per_w > 0 and cfg.c_tile_j_per_k > 0

    def test_invalid_rejected(self):
        with pytest.raises(ThermalError):
            ThermalConfig(r_vertical_k_per_w=0)
        with pytest.raises(ThermalError):
            ThermalConfig(c_tile_j_per_k=-1)


class TestThermalGrid:
    def test_starts_at_ambient(self):
        grid = ThermalGrid(MeshTopology(3, 3))
        assert grid.max_temperature_c == pytest.approx(45.0)

    def test_power_heats_the_dissipating_tile_most(self):
        grid = ThermalGrid(MeshTopology(3, 3))
        power = np.zeros(9)
        power[4] = 0.05  # 50 mW at the center
        temps = grid.steady_state(power)
        assert temps[4] == temps.max()
        assert temps[4] > 45.0 + 5.0

    def test_lateral_spreading(self):
        grid = ThermalGrid(MeshTopology(3, 3))
        power = np.zeros(9)
        power[4] = 0.05
        temps = grid.steady_state(power)
        # Neighbors are warmer than corners (heat spreads laterally).
        assert temps[1] > temps[0]

    def test_transient_approaches_steady_state(self):
        grid = ThermalGrid(MeshTopology(3, 3))
        power = np.zeros(9)
        power[4] = 0.05
        target = grid.steady_state(power)
        for _ in range(50):
            grid.step(power, 50e-6)  # 50 us steps, ~25 tau total
        assert grid.temperatures[4] == pytest.approx(target[4], abs=0.5)

    def test_transient_is_initially_below_steady_state(self):
        grid = ThermalGrid(MeshTopology(3, 3))
        power = np.zeros(9)
        power[4] = 0.05
        target = grid.steady_state(power)
        grid.step(power, 10e-6)  # a fraction of tau
        assert grid.temperatures[4] < target[4] - 1.0

    def test_cooling_back_to_ambient(self):
        grid = ThermalGrid(MeshTopology(3, 3))
        power = np.zeros(9)
        power[4] = 0.05
        grid.step(power, 500e-6)
        grid.step(np.zeros(9), 2e-3)
        assert grid.max_temperature_c == pytest.approx(45.0, abs=0.2)

    def test_shape_mismatch_rejected(self):
        grid = ThermalGrid(MeshTopology(3, 3))
        with pytest.raises(ThermalError):
            grid.step(np.zeros(4), 1e-6)
        with pytest.raises(ThermalError):
            grid.steady_state(np.zeros(4))

    def test_reset(self):
        grid = ThermalGrid(MeshTopology(2, 2))
        grid.temperatures[:] = 99.0
        grid.reset()
        assert grid.max_temperature_c == pytest.approx(45.0)


class TestRunThermals:
    def test_post_hoc_analysis_of_a_soc_run(self):
        soc = Soc(soc_3x3())
        pm = BlitzCoinPM(soc, 120.0)
        run = WorkloadExecutor(
            soc, autonomous_vehicle_parallel(), pm
        ).run()
        analysis = simulate_run_thermals(run, soc.topology)
        assert analysis["peak_by_tile_c"].max() > 46.0
        assert analysis["hottest_trajectory_c"][0] <= (
            analysis["hottest_trajectory_c"].max()
        )
        # Unpowered (non-accelerator) tiles stay near ambient.
        cpu = soc.config.cpu_tile()
        assert analysis["peak_by_tile_c"][cpu] < 60.0


class TestThermalGovernor:
    def _run_with_governor(self, limit_c):
        soc = Soc(soc_3x3())
        pm = BlitzCoinPM(soc, 120.0)
        governor = ThermalGovernor(
            soc,
            pm,
            limit_c=limit_c,
            hysteresis_c=5.0,
            sample_cycles=2_000,
            capped_coins=8,
        )
        executor = WorkloadExecutor(
            soc, autonomous_vehicle_parallel(), pm
        )
        governor.start()
        result = executor.run()
        return result, governor

    def test_low_limit_engages_caps_and_reduces_peak_temp(self):
        unmanaged, gov_off = self._run_with_governor(limit_c=500.0)
        managed, gov_on = self._run_with_governor(limit_c=52.0)
        assert gov_off.cap_events == 0
        assert gov_on.cap_events > 0
        assert gov_on.peak_temperature_c < gov_off.peak_temperature_c

    def test_capping_costs_some_throughput(self):
        free, _ = self._run_with_governor(limit_c=500.0)
        throttled, _ = self._run_with_governor(limit_c=52.0)
        assert throttled.makespan_cycles >= free.makespan_cycles

    def test_hysteresis_releases_caps(self):
        _, gov = self._run_with_governor(limit_c=52.0)
        releases = [e for e in gov.events if e[2] == "release"]
        caps = [e for e in gov.events if e[2] == "cap"]
        assert caps
        # Tiles that cooled (after their task ended) get released.
        assert len(releases) >= 1

    def test_invalid_parameters_rejected(self):
        soc = Soc(soc_3x3())
        pm = BlitzCoinPM(soc, 120.0)
        with pytest.raises(ValueError):
            ThermalGovernor(soc, pm, hysteresis_c=-1.0)
        with pytest.raises(ValueError):
            ThermalGovernor(soc, pm, sample_cycles=0)
