"""Tests for the power-manager adapters on a live SoC."""

import math

import pytest

from repro.power.allocation import AllocationStrategy
from repro.soc.executor import WorkloadExecutor
from repro.soc.pm import (
    BlitzCoinPM,
    CentralizedPM,
    PMKind,
    StaticPM,
    TokenSmartPM,
    build_pm,
)
from repro.workloads.apps import autonomous_vehicle_parallel
from tests.conftest import build_soc


class TestBuildPm:
    @pytest.mark.parametrize("kind", list(PMKind))
    def test_factory_constructs_each_kind(self, kind):
        soc = build_soc("3x3")
        pm = build_pm(kind, soc, 120.0)
        assert hasattr(pm, "start")
        assert hasattr(pm, "on_tile_start")
        assert hasattr(pm, "response_times")

    @pytest.mark.parametrize("kind", list(PMKind))
    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf, 0.0, -5.0])
    def test_non_positive_or_non_finite_budget_rejected(self, kind, budget):
        with pytest.raises(ValueError, match="positive, finite"):
            build_pm(kind, build_soc("3x3"), budget)

    @pytest.mark.parametrize("kind", list(PMKind))
    def test_budget_below_idle_floor_rejected(self, kind):
        with pytest.raises(ValueError, match="idle floor"):
            build_pm(kind, build_soc("3x3"), 1.0)


class TestBlitzCoinPM:
    def test_pool_sized_net_of_idle_floor(self):
        soc = build_soc("3x3")
        pm = BlitzCoinPM(soc, 120.0)
        assert pm.coin_budget.pool * pm.coin_budget.coin_value_mw < 120.0
        assert pm.coin_budget.pool == 63

    def test_budget_below_idle_floor_rejected(self):
        soc = build_soc("3x3")
        with pytest.raises(ValueError):
            BlitzCoinPM(soc, 1.0)

    def test_tile_start_sets_target_and_attracts_coins(self):
        soc = build_soc("3x3")
        pm = BlitzCoinPM(soc, 120.0)
        pm.start()
        tid = pm.tiles[0]
        soc.set_active(tid, True)
        pm.on_tile_start(tid)
        soc.sim.run_for(20_000)
        assert pm.engine.coins(tid).has > pm.coin_budget.pool // len(pm.tiles)

    def test_tile_end_relinquishes_and_gates_clock(self):
        soc = build_soc("3x3")
        pm = BlitzCoinPM(soc, 120.0)
        pm.start()
        tid = pm.tiles[0]
        soc.set_active(tid, True)
        pm.on_tile_start(tid)
        soc.sim.run_for(20_000)
        soc.set_active(tid, False)
        pm.on_tile_end(tid)
        soc.sim.run_for(5_000)
        assert soc.actuators[tid].f_target_hz == 0.0

    def test_ap_strategy_equalizes_targets(self):
        soc = build_soc("3x3")
        pm = BlitzCoinPM(
            soc, 120.0, strategy=AllocationStrategy.ABSOLUTE_PROPORTIONAL
        )
        targets = set(pm.coin_budget.max_by_tile.values())
        assert len(targets) == 1  # equal absolute shares fit under caps

    def test_rp_strategy_weights_by_pmax(self):
        soc = build_soc("3x3")
        pm = BlitzCoinPM(soc, 120.0)
        by_class = {}
        for t in pm.tiles:
            by_class[soc.config.class_of(t)] = pm.coin_budget.max_by_tile[t]
        assert by_class["NVDLA"] > by_class["FFT"] > by_class["Viterbi"]

    def test_response_logged_after_activity_change(self):
        soc = build_soc("3x3")
        pm = BlitzCoinPM(soc, 120.0)
        pm.start()
        tid = pm.tiles[0]
        soc.set_active(tid, True)
        pm.on_tile_start(tid)
        soc.sim.run_for(100_000)
        assert len(pm.response_times) >= 1
        assert pm.response_log[0][0] <= pm.response_log[0][1] + soc.sim.now


class TestCentralizedPM:
    @pytest.mark.parametrize("policy", ["crr", "bcc"])
    def test_controller_grants_power_to_active_tiles(self, policy):
        soc = build_soc("3x3")
        pm = CentralizedPM(soc, 120.0, policy=policy)
        pm.start()
        tid = soc.config.tiles_of_class("FFT")[0]
        soc.set_active(tid, True)
        pm.on_tile_start(tid)
        soc.sim.run_for(50_000)
        assert soc.frequency(tid) > 0

    def test_unknown_policy_rejected(self):
        soc = build_soc("3x3")
        with pytest.raises(ValueError):
            CentralizedPM(soc, 120.0, policy="magic")

    def test_crr_slower_than_bcc_per_tile(self):
        soc = build_soc("3x3")
        crr = CentralizedPM(soc, 120.0, policy="crr")
        soc2 = build_soc("3x3")
        bcc = CentralizedPM(soc2, 120.0, policy="bcc")
        assert (
            crr.scheme.timing.poll_overhead > bcc.scheme.timing.poll_overhead
        )


class TestTokenSmartPM:
    def test_ring_covers_managed_tiles(self):
        soc = build_soc("3x3")
        pm = TokenSmartPM(soc, 120.0)
        assert sorted(pm.ring) == sorted(pm.tiles)

    def test_tokens_conserved(self):
        soc = build_soc("3x3")
        pm = TokenSmartPM(soc, 120.0)
        pm.start()
        tid = pm.tiles[0]
        soc.set_active(tid, True)
        pm.on_tile_start(tid)
        soc.sim.run_for(30_000)
        assert sum(pm.has.values()) + pm.pool_tokens == pm.coin_budget.pool

    def test_active_tile_acquires_tokens(self):
        soc = build_soc("3x3")
        pm = TokenSmartPM(soc, 120.0)
        pm.start()
        tid = pm.tiles[0]
        soc.set_active(tid, True)
        pm.on_tile_start(tid)
        soc.sim.run_for(30_000)
        assert pm.has[tid] > 0
        assert soc.frequency(tid) > 0


class TestCapEnforcement:
    @pytest.mark.parametrize(
        "kind",
        [
            PMKind.BLITZCOIN,
            PMKind.BLITZCOIN_CENTRAL,
            PMKind.ROUND_ROBIN,
            PMKind.TOKENSMART,
            PMKind.STATIC,
        ],
    )
    def test_every_scheme_respects_the_power_cap(self, kind):
        """Fig. 16's headline invariant, with a 10% transient allowance
        for actuator slew overlap."""
        soc = build_soc("3x3")
        pm = build_pm(kind, soc, 120.0)
        result = WorkloadExecutor(
            soc, autonomous_vehicle_parallel(), pm
        ).run()
        assert result.peak_power_mw() <= 1.10 * 120.0


class TestCoinPrecision:
    def test_coin_bits_sets_counter_width(self):
        soc = build_soc("3x3")
        pm = BlitzCoinPM(soc, 120.0, coin_bits=4)
        assert max(pm.coin_budget.max_by_tile.values()) <= 15
        assert pm.luts[pm.tiles[0]].n_entries == 16

    def test_invalid_coin_bits_rejected(self):
        soc = build_soc("3x3")
        with pytest.raises(ValueError):
            BlitzCoinPM(soc, 120.0, coin_bits=0)
        with pytest.raises(ValueError):
            BlitzCoinPM(soc, 120.0, coin_bits=13)

    def test_coarse_coins_still_run_to_completion(self):
        soc = build_soc("3x3")
        pm = BlitzCoinPM(soc, 120.0, coin_bits=3)
        result = WorkloadExecutor(
            soc, autonomous_vehicle_parallel(), pm
        ).run()
        assert result.makespan_cycles > 0
