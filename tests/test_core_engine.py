"""Tests for the decentralized coin-exchange engine."""

import dataclasses

import pytest

from repro.core.config import (
    BlitzCoinConfig,
    ExchangeMode,
    plain_four_way,
    plain_one_way,
    preferred_embodiment,
)
from repro.core.engine import CoinExchangeEngine, EngineError
from repro.noc.behavioral import BehavioralNoc
from repro.noc.topology import MeshTopology
from repro.sim.kernel import Simulator
from repro.sim.rng import rng_for
from repro.soc.presets import soc_3x3, soc_4x4, soc_6x6_chip
from tests.conftest import build_engine_rig


def make_engine(d=3, config=None, max_per_tile=8, initial=None, **kwargs):
    rig = build_engine_rig(
        d,
        config=config,
        max_per_tile=max_per_tile,
        initial=initial,
        **kwargs,
    )
    return rig.sim, rig.engine


class TestConstruction:
    def test_vector_length_checked(self):
        topo = MeshTopology(2, 2)
        sim = Simulator()
        noc = BehavioralNoc(sim, topo)
        with pytest.raises(EngineError):
            CoinExchangeEngine(sim, noc, plain_one_way(), [1, 2], [1, 2, 3, 4])

    def test_unmanaged_tile_with_coins_rejected(self):
        topo = MeshTopology(2, 2)
        sim = Simulator()
        noc = BehavioralNoc(sim, topo)
        with pytest.raises(EngineError):
            CoinExchangeEngine(
                sim,
                noc,
                plain_one_way(),
                [1, 1, 1, 1],
                [1, 1, 1, 1],
                managed_tiles=[0, 1, 2],
            )

    def test_double_start_rejected(self):
        sim, engine = make_engine()
        engine.start()
        with pytest.raises(EngineError):
            engine.start()


class TestConservation:
    @pytest.mark.parametrize(
        "config",
        [plain_one_way(), plain_four_way(), preferred_embodiment()],
        ids=["1-way", "4-way", "preferred"],
    )
    def test_coins_conserved_throughout(self, config):
        initial = [0] * 9
        initial[0] = 72
        sim, engine = make_engine(
            d=3, config=config, initial=initial, rng=rng_for(1)
        )
        engine.start()
        for _ in range(10):
            sim.run_for(500)
            engine.check_conservation()

    def test_conservation_across_activity_changes(self):
        sim, engine = make_engine(d=3, config=preferred_embodiment())
        engine.start()
        sim.run_for(500)
        engine.set_max(4, 0)
        sim.run_for(500)
        engine.set_max(4, 16)
        sim.run_for(2000)
        engine.check_conservation()


class TestConvergence:
    def test_concentrated_coins_spread_to_equilibrium(self):
        initial = [0] * 9
        initial[0] = 72
        sim, engine = make_engine(d=3, initial=initial)
        engine.start()
        converged = engine.run_until_converged(100_000)
        assert converged is not None
        assert engine.tracker.error < engine.config.convergence_threshold

    def test_already_fair_state_converges_immediately(self):
        sim, engine = make_engine(d=3)
        engine.start()
        assert engine.run_until_converged(10_000) == 0

    def test_steady_state_counts_non_negative(self):
        initial = [0] * 9
        initial[0] = 72
        sim, engine = make_engine(d=3, initial=initial)
        engine.start()
        engine.run_until_converged(100_000)
        sim.run_for(5_000)
        for t in range(9):
            assert engine.coins(t).has >= 0

    def test_four_way_converges(self):
        initial = [0] * 9
        initial[4] = 72
        sim, engine = make_engine(
            d=3, config=plain_four_way(), initial=initial, rng=rng_for(3)
        )
        engine.start()
        assert engine.run_until_converged(200_000) is not None


class TestActivityChanges:
    def test_idle_tile_relinquishes_coins(self):
        sim, engine = make_engine(d=3, config=preferred_embodiment())
        engine.start()
        sim.run_for(200)
        engine.set_max(4, 0)
        engine.run_until_converged(100_000)
        sim.run_for(10_000)
        # The idle tile's coins should have drained to the active tiles.
        assert engine.coins(4).has <= 1

    def test_new_tile_attracts_coins(self):
        max_vec = [8] * 9
        max_vec[4] = 0
        topo = MeshTopology(3, 3)
        sim = Simulator()
        noc = BehavioralNoc(sim, topo)
        engine = CoinExchangeEngine(
            sim, noc, preferred_embodiment(), max_vec, [8] * 9
        )
        engine.start()
        sim.run_for(2_000)
        engine.set_max(4, 64)  # a big consumer appears
        sim.run_for(50_000)
        assert engine.coins(4).has > 8
        engine.check_conservation()

    def test_set_max_on_unmanaged_tile_rejected(self):
        topo = MeshTopology(2, 2)
        sim = Simulator()
        noc = BehavioralNoc(sim, topo)
        engine = CoinExchangeEngine(
            sim,
            noc,
            plain_one_way(),
            [1, 1, 1, 0],
            [1, 1, 1, 0],
            managed_tiles=[0, 1, 2],
        )
        with pytest.raises(EngineError):
            engine.set_max(3, 5)


class TestThermalCaps:
    def test_caps_limit_steady_state_holdings(self):
        config = dataclasses.replace(
            preferred_embodiment(),
            thermal_caps={t: 10 for t in range(9)},
        )
        initial = [0] * 9
        initial[0] = 60
        sim, engine = make_engine(d=3, config=config, initial=initial)
        engine.start()
        sim.run_for(100_000)
        for t in range(9):
            if t != 0:  # the initial holder may start above its cap
                assert engine.coins(t).has <= 10
        engine.check_conservation()

    @pytest.mark.parametrize("make_config", [plain_one_way, plain_four_way])
    def test_runtime_caps_bind_without_a_config_cap(self, make_config):
        # The config sets no cap source, so only the runtime overrides
        # (the CSR-visible control) can clamp an exchange.
        initial = [0] * 9
        initial[0] = 60
        sim, engine = make_engine(d=3, config=make_config(), initial=initial)
        for t in range(1, 9):
            engine.set_thermal_cap(t, 4)
        engine.start()
        sim.run_for(20_000)
        assert engine.coins(0).has >= 60 - 8 * 4
        for t in range(1, 9):
            assert engine.coins(t).has <= 4
        engine.check_conservation()


class TestRandomPairing:
    def test_escapes_inactive_barrier(self):
        """A coin-rich tile fenced by inactive tiles still feeds a
        distant hungry tile when random pairing is on (Fig. 5)."""
        topo = MeshTopology(4, 4)
        sim = Simulator()
        noc = BehavioralNoc(sim, topo)
        max_vec = [0] * 16
        max_vec[0] = 8
        max_vec[15] = 8
        initial = [0] * 16
        initial[0] = 12
        config = dataclasses.replace(
            preferred_embodiment(), wrap_around=False
        )
        engine = CoinExchangeEngine(sim, noc, config, max_vec, initial)
        engine.start()
        sim.run_for(300_000)
        assert engine.coins(15).has >= 5

    def test_without_random_pairing_barrier_blocks(self):
        topo = MeshTopology(4, 4)
        sim = Simulator()
        noc = BehavioralNoc(sim, topo)
        max_vec = [0] * 16
        max_vec[0] = 8
        max_vec[15] = 8
        initial = [0] * 16
        initial[0] = 12
        config = BlitzCoinConfig(
            mode=ExchangeMode.ONE_WAY,
            dynamic_timing=False,
            wrap_around=False,
            random_pairing_every=0,
        )
        engine = CoinExchangeEngine(sim, noc, config, max_vec, initial)
        engine.start()
        sim.run_for(100_000)
        # Coins cannot cross the inactive region: corner exchange with
        # inactive neighbors moves everything one hop at most... the
        # distant tile stays starved of its fair share.
        assert engine.coins(15).has < 5


    @staticmethod
    def _expected_pairing(topo, managed, tid):
        excluded = [tid, *topo.torus_neighbors(tid)]
        return [t for t in sorted(managed) if t not in excluded]

    @pytest.mark.parametrize("wrap_around", [True, False])
    def test_pairing_lists_on_a_full_grid(self, wrap_around):
        topo = MeshTopology(5, 4)
        config = dataclasses.replace(
            preferred_embodiment(), wrap_around=wrap_around
        )
        sim = Simulator()
        engine = CoinExchangeEngine(
            sim, BehavioralNoc(sim, topo), config, [8] * 20, [4] * 20
        )
        for tid in range(20):
            assert engine.fsm[tid].non_neighbors == self._expected_pairing(
                topo, range(20), tid
            )

    @pytest.mark.parametrize("preset", [soc_3x3, soc_4x4, soc_6x6_chip])
    def test_pairing_lists_on_a_soc_managed_subset(self, preset):
        soc_config = preset()
        topo = soc_config.topology
        managed = soc_config.managed_accelerators()
        n = topo.n_tiles
        sim = Simulator()
        engine = CoinExchangeEngine(
            sim, BehavioralNoc(sim, topo), preferred_embodiment(),
            [0] * n, [0] * n, managed_tiles=managed,
        )
        for tid in managed:
            assert engine.fsm[tid].non_neighbors == self._expected_pairing(
                topo, managed, tid
            )

    def test_pairing_lists_share_their_ints(self):
        """Ids past CPython's small-int cache are one object in every
        tile's list, not one copy per tile."""
        topo = MeshTopology(17, 17)
        n = topo.n_tiles
        sim = Simulator()
        engine = CoinExchangeEngine(
            sim, BehavioralNoc(sim, topo), preferred_embodiment(),
            [1] * n, [1] * n,
        )
        first = engine.fsm[0].non_neighbors
        for tid in (100, 200, n - 1):
            other = engine.fsm[tid].non_neighbors
            shared = [t for t in other if t in first and t > 256]
            assert shared
            assert all(first[first.index(t)] is t for t in shared)


class TestStatistics:
    def test_packet_accounting(self):
        initial = [0] * 9
        initial[0] = 72
        sim, engine = make_engine(d=3, initial=initial)
        engine.start()
        engine.run_until_converged(100_000)
        assert engine.coin_packets > 0
        assert engine.exchanges_started > 0

    def test_dynamic_timing_backs_off_in_steady_state(self):
        sim, engine = make_engine(d=3, config=preferred_embodiment())
        engine.start()
        sim.run_for(50_000)
        intervals = [engine.fsm[t].interval for t in range(9)]
        assert all(
            iv >= engine.config.refresh_count for iv in intervals
        ), f"steady-state intervals did not back off: {intervals}"
