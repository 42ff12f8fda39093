"""Tests for the live SoC object and the workload executor."""

import pytest

from repro.soc.executor import ExecutorError, WorkloadExecutor
from repro.soc.pm import PMKind, StaticPM, build_pm
from repro.soc.soc import SocError
from repro.workloads.dag import Task, TaskGraph
from repro.workloads.scenarios import build_parallel, chain
from tests.conftest import build_soc


def small_graph():
    return build_parallel([("f", "FFT", 50_000), ("v", "Viterbi", 40_000)])


class TestSoc:
    def test_actuators_created_for_accelerators(self, soc3):
        soc = soc3
        assert set(soc.actuators) == set(soc.config.accelerators())

    def test_set_active_records_power_step(self, soc3):
        soc = soc3
        tid = soc.config.managed_accelerators()[0]
        soc.set_active(tid, True)
        assert soc.recorder.get(f"active/{tid}") is not None

    def test_set_active_on_non_accelerator_rejected(self, soc3):
        soc = soc3
        with pytest.raises(SocError):
            soc.set_active(soc.config.cpu_tile(), True)

    def test_unknown_noc_fidelity_rejected(self):
        with pytest.raises(SocError):
            build_soc("3x3", noc_fidelity="rtl")

    def test_cycle_noc_fidelity_available(self):
        soc = build_soc("3x3", noc_fidelity="cycle")
        assert soc.noc is not None

    def test_p_max_by_tile(self, soc3):
        soc = soc3
        p = soc.p_max_by_tile()
        assert len(p) == 6
        assert all(v > 0 for v in p.values())

    def test_managed_power_sums_tiles(self, soc3):
        soc = soc3
        tid = soc.config.managed_accelerators()[0]
        idle = soc.tile_power_mw(tid)
        assert idle > 0  # idle floor
        soc.set_active(tid, True)
        soc.set_frequency_target(tid, 400e6)
        soc.sim.run_for(5_000)
        assert soc.tile_power_mw(tid) > idle


class TestExecutorBinding:
    def test_tasks_bound_to_matching_class(self, soc3):
        soc = soc3
        pm = StaticPM(soc, 120.0)
        ex = WorkloadExecutor(soc, small_graph(), pm)
        assert soc.config.class_of(ex.binding["f"]) == "FFT"
        assert soc.config.class_of(ex.binding["v"]) == "Viterbi"

    def test_round_robin_across_same_class_tiles(self, soc3):
        soc = soc3
        pm = StaticPM(soc, 120.0)
        g = build_parallel(
            [("f1", "FFT", 10_000), ("f2", "FFT", 10_000), ("f3", "FFT", 10_000)]
        )
        ex = WorkloadExecutor(soc, g, pm)
        assert len(set(ex.binding.values())) == 3

    def test_unmappable_class_rejected(self, soc3):
        soc = soc3
        pm = StaticPM(soc, 120.0)
        g = build_parallel([("g", "GEMM", 10_000)])
        with pytest.raises(ExecutorError):
            WorkloadExecutor(soc, g, pm)

    def test_tile_hint_respected(self, soc3):
        soc = soc3
        pm = StaticPM(soc, 120.0)
        fft_tiles = soc.config.tiles_of_class("FFT")
        g = TaskGraph([Task("f", "FFT", 10_000, tile_hint=fft_tiles[-1])])
        ex = WorkloadExecutor(soc, g, pm)
        assert ex.binding["f"] == fft_tiles[-1]

    def test_bad_tile_hint_rejected(self, soc3):
        soc = soc3
        pm = StaticPM(soc, 120.0)
        g = TaskGraph([Task("f", "FFT", 10_000, tile_hint=99)])
        with pytest.raises(ExecutorError):
            WorkloadExecutor(soc, g, pm)


class TestExecution:
    def test_parallel_graph_completes(self, soc3):
        soc = soc3
        pm = StaticPM(soc, 120.0)
        result = WorkloadExecutor(soc, small_graph(), pm).run()
        assert set(result.task_finish_cycles) == {"f", "v"}
        assert result.makespan_cycles > 0

    def test_dependencies_serialize_execution(self, soc3):
        soc = soc3
        pm = StaticPM(soc, 120.0)
        g = chain([("a", "FFT", 50_000), ("b", "Viterbi", 50_000)])
        result = WorkloadExecutor(soc, g, pm).run()
        assert (
            result.task_start_cycles["b"] >= result.task_finish_cycles["a"]
        )

    def test_queued_tasks_share_a_tile(self, soc3):
        soc = soc3
        pm = StaticPM(soc, 120.0)
        g = build_parallel(
            [(f"n{k}", "NVDLA", 20_000) for k in range(3)]  # 1 NVDLA tile
        )
        result = WorkloadExecutor(soc, g, pm).run()
        finishes = sorted(result.task_finish_cycles.values())
        assert finishes[0] < finishes[1] < finishes[2]

    def test_timeout_reports_stuck_tasks(self, soc3):
        soc = soc3
        pm = StaticPM(soc, 120.0)
        ex = WorkloadExecutor(soc, small_graph(), pm)
        with pytest.raises(ExecutorError) as err:
            ex.run(max_cycles=10)
        assert "stuck" in str(err.value)

    def test_makespan_shrinks_with_budget(self):
        makespans = {}
        for budget in (60.0, 120.0):
            soc = build_soc("3x3")
            pm = build_pm(PMKind.BLITZCOIN, soc, budget)
            g = build_parallel(
                [("f", "FFT", 100_000), ("v", "Viterbi", 100_000)]
            )
            makespans[budget] = WorkloadExecutor(soc, g, pm).run().makespan_cycles
        assert makespans[120.0] < makespans[60.0]

    def test_work_conservation_against_frequency_trace(self):
        """A task's finish time must satisfy integral(f dt) = work."""
        soc = build_soc("3x3")
        pm = StaticPM(soc, 120.0)
        g = build_parallel([("f", "FFT", 80_000)])
        result = WorkloadExecutor(soc, g, pm).run()
        tile = [t for t in soc.config.tiles_of_class("FFT")][0]
        trace = soc.recorder.get(f"freq/{tile}")
        start = result.task_start_cycles["f"]
        finish = result.task_finish_cycles["f"]
        from repro.sim import NOC_FREQUENCY_HZ

        executed = trace.integral(start, finish) / NOC_FREQUENCY_HZ
        assert executed == pytest.approx(80_000, rel=0.02)


class TestRunResult:
    def test_power_series_shape(self, soc3):
        soc = soc3
        pm = StaticPM(soc, 120.0)
        result = WorkloadExecutor(soc, small_graph(), pm).run()
        times, power = result.power_series(50)
        assert len(times) == len(power) == 50
        assert power.max() > 0

    def test_energy_positive(self, soc3):
        soc = soc3
        pm = StaticPM(soc, 120.0)
        result = WorkloadExecutor(soc, small_graph(), pm).run()
        assert result.energy_mj() > 0

    def test_budget_violation_zero_for_static(self, soc3):
        soc = soc3
        pm = StaticPM(soc, 120.0)
        result = WorkloadExecutor(soc, small_graph(), pm).run()
        assert result.budget_violation_mw() == 0.0
