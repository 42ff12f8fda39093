"""Tests for the fault injector and the NoC injection hooks.

Covers the determinism contract (counter-hash decisions, stream
position independent of outcomes), the runtime fast flag, and the
fabric-level semantics of each fault kind: drop, duplicate (sequence
filtered, never loss-notified), corrupt (CRC discard at the NI), and
delay, on both NoC fidelities.
"""

import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    LinkFaultRates,
    injecting,
    maybe_injecting,
)
from repro.faults import runtime as fault_runtime
from repro.noc.behavioral import BehavioralNoc
from repro.noc.packet import MessageType, Packet
from repro.noc.router import CycleNoc
from repro.noc.topology import MeshTopology
from repro.sim.kernel import Simulator


def make_packet(src=0, dst=1, msg_type=MessageType.COIN_REQUEST):
    return Packet(src=src, dst=dst, msg_type=msg_type)


class TestInjectorDeterminism:
    def test_same_plan_same_stream(self):
        plan = FaultPlan.uniform(drop=0.3, delay=0.3, seed=7)
        a, b = FaultInjector(plan), FaultInjector(plan)
        verdicts_a = [a.decide(make_packet()) for _ in range(200)]
        verdicts_b = [b.decide(make_packet()) for _ in range(200)]
        assert verdicts_a == verdicts_b

    def test_reset_rewinds_the_stream(self):
        inj = FaultInjector(FaultPlan.uniform(drop=0.3, seed=7))
        first = [inj.decide(make_packet()) for _ in range(50)]
        inj.reset()
        again = [inj.decide(make_packet()) for _ in range(50)]
        assert first == again

    def test_different_seeds_differ(self):
        a = FaultInjector(FaultPlan.uniform(drop=0.3, seed=1))
        b = FaultInjector(FaultPlan.uniform(drop=0.3, seed=2))
        va = [a.decide(make_packet()) for _ in range(100)]
        vb = [b.decide(make_packet()) for _ in range(100)]
        assert va != vb

    def test_two_draws_per_consulted_packet(self):
        """Stream position must not depend on which faults fire."""
        inj = FaultInjector(FaultPlan.uniform(drop=0.5, seed=3))
        for k in range(1, 20):
            inj.decide(make_packet())
            assert inj.decisions == 2 * k

    def test_null_rates_consume_no_draws(self):
        inj = FaultInjector(FaultPlan())
        assert inj.decide(make_packet()) is None
        assert inj.decisions == 0

    def test_rates_are_honored_statistically(self):
        inj = FaultInjector(FaultPlan.uniform(drop=0.2, seed=11))
        n = 5000
        for _ in range(n):
            inj.decide(make_packet())
        assert inj.drops == pytest.approx(n * 0.2, rel=0.15)

    def test_link_override_scopes_faults(self):
        plan = FaultPlan(
            seed=5,
            link_overrides=((0, 1, LinkFaultRates(drop=1.0)),),
        )
        inj = FaultInjector(plan)
        assert inj.decide(make_packet(0, 1)) == ("drop", 0)
        assert inj.decide(make_packet(1, 0)) is None

    def test_delay_verdict_bounded(self):
        plan = FaultPlan.uniform(delay=1.0, max_delay_cycles=4, seed=9)
        inj = FaultInjector(plan)
        for _ in range(100):
            kind, extra = inj.decide(make_packet())
            assert kind == "delay"
            assert 1 <= extra <= 4


class TestRuntimeFlag:
    def test_install_uninstall(self):
        inj = FaultInjector(FaultPlan.uniform(drop=0.1))
        assert not fault_runtime.enabled()
        fault_runtime.install(inj)
        try:
            assert fault_runtime.enabled()
            assert fault_runtime.injector is inj
            with pytest.raises(FaultPlanError):
                fault_runtime.install(inj)  # double install
        finally:
            fault_runtime.uninstall()
        assert not fault_runtime.enabled()

    def test_injecting_context(self):
        with injecting(FaultPlan.uniform(drop=0.1)) as inj:
            assert fault_runtime.injector is inj
        assert fault_runtime.injector is None

    def test_maybe_injecting_none_is_a_no_op(self):
        with maybe_injecting(None) as inj:
            assert inj is None
            assert fault_runtime.injector is None


class TestFabricInjection:
    """Each verdict on the behavioral NoC; the subclass below reruns
    every test on the cycle-level NoC."""

    noc_cls = BehavioralNoc
    #: Latency of the one delayed 1-hop packet: the behavioral NoC adds
    #: the verdict's delay once, the cycle-level NoC also a per-hop stall.
    delayed_latency = 4

    def make_noc(self):
        sim = Simulator()
        return sim, self.noc_cls(sim, MeshTopology(3, 3))

    def attach_counter(self, noc, tid):
        received = []
        noc.attach(tid, received.append)
        return received

    @staticmethod
    def assert_traffic(noc, hops, latency, by_type):
        assert noc.stats.total_hops == hops
        assert noc.stats.total_latency == latency
        assert noc.stats.by_type == by_type

    def test_drop_discards_and_notifies(self):
        sim, noc = self.make_noc()
        received = self.attach_counter(noc, 1)
        losses = []
        noc.add_loss_listener(lambda p, reason: losses.append(reason))
        with injecting(FaultPlan.uniform(drop=1.0)):
            noc.send(make_packet(0, 1))
            sim.run_for(100)
        assert received == []
        assert noc.stats.discards_by_reason == {"drop": 1}
        assert losses == ["drop"]
        assert noc.stats.injected == 1
        assert noc.stats.delivered == 0
        self.assert_traffic(noc, 0, 0, {"coin_request": 1})

    def test_corrupt_discarded_at_destination(self):
        sim, noc = self.make_noc()
        received = self.attach_counter(noc, 1)
        losses = []
        noc.add_loss_listener(lambda p, reason: losses.append(reason))
        with injecting(FaultPlan.uniform(corrupt=1.0)):
            noc.send(make_packet(0, 1))
            sim.run_for(100)
        assert received == []
        assert noc.stats.discards_by_reason == {"corrupt": 1}
        assert losses == ["corrupt"]
        self.assert_traffic(noc, 0, 0, {"coin_request": 1})

    def test_duplicate_filtered_without_loss_notify(self):
        """The copy is discarded by the NI sequence filter and must NOT
        look like a loss — otherwise reconciliation would mint phantom
        coins."""
        sim, noc = self.make_noc()
        received = self.attach_counter(noc, 1)
        losses = []
        noc.add_loss_listener(lambda p, reason: losses.append(reason))
        with injecting(FaultPlan.uniform(duplicate=1.0)):
            noc.send(make_packet(0, 1))
            sim.run_for(100)
        assert len(received) == 1  # original delivered once
        assert noc.stats.injected == 2  # copy fully accounted
        assert noc.stats.discards_by_reason == {"duplicate": 1}
        assert losses == []
        self.assert_traffic(noc, 1, 2, {"coin_request": 2})

    def test_delay_postpones_delivery(self):
        sim, noc = self.make_noc()
        with injecting(FaultPlan.uniform(delay=1.0, max_delay_cycles=8)):
            received = self.attach_counter(noc, 1)
            noc.send(make_packet(0, 1))
            sim.run_for(200)
            delayed_at = noc.stats.delivered and sim.now
        assert delayed_at
        self.assert_traffic(
            noc, 1, self.delayed_latency, {"coin_request": 1}
        )
        sim2, noc2 = self.make_noc()
        received2 = self.attach_counter(noc2, 1)
        noc2.send(make_packet(0, 1))
        sim2.run_for(200)
        assert len(received) == len(received2) == 1
        assert received[0].delivered_at > received2[0].delivered_at

    def test_dead_tile_discard_vs_never_attached(self):
        """Packets to a mark_dead tile are terminal losses; packets to
        a tile that never attached keep the legacy delivered-to-nobody
        accounting (centralized PM decorative traffic)."""
        sim, noc = self.make_noc()
        losses = []
        noc.add_loss_listener(lambda p, reason: losses.append(reason))
        noc.send(make_packet(0, 1))  # never attached
        sim.run_for(50)
        assert noc.stats.delivered == 1
        assert losses == []
        noc.mark_dead(2)
        noc.send(make_packet(0, 2))
        sim.run_for(50)
        assert noc.stats.delivered == 1
        assert noc.stats.discards_by_reason == {"dead-tile": 1}
        assert losses == ["dead-tile"]
        self.assert_traffic(noc, 1, 2, {"coin_request": 2})

    def test_mark_alive_restores_legacy_accounting(self):
        sim, noc = self.make_noc()
        noc.mark_dead(2)
        noc.mark_alive(2)
        noc.send(make_packet(0, 2))
        sim.run_for(50)
        assert noc.stats.delivered == 1
        assert noc.stats.discarded == 0

    def test_no_injector_means_no_faults(self):
        sim, noc = self.make_noc()
        received = self.attach_counter(noc, 1)
        for _ in range(20):
            noc.send(make_packet(0, 1))
        sim.run_for(200)
        assert len(received) == 20
        assert noc.stats.discarded == 0


class TestFabricInjectionCycleNoc(TestFabricInjection):
    noc_cls = CycleNoc
    delayed_latency = 9
