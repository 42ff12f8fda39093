"""Tests for packets and the two NoC fidelities."""

import pytest

from repro.noc.behavioral import BehavioralNoc
from repro.noc.packet import MessageType, Packet, PacketStats, Plane
from repro.noc.router import CycleNoc
from repro.noc.topology import MeshTopology, TopologyError
from repro.sim.kernel import Simulator


class TestPacket:
    def test_coin_message_classification(self):
        assert MessageType.COIN_STATUS.is_coin_message
        assert MessageType.COIN_UPDATE.is_coin_message
        assert MessageType.COIN_REQUEST.is_coin_message
        assert not MessageType.PM_POLL.is_coin_message

    def test_default_plane_is_mmio(self):
        p = Packet(src=0, dst=1, msg_type=MessageType.COIN_STATUS)
        assert p.plane is Plane.MMIO_IRQ

    def test_invalid_flits_rejected(self):
        with pytest.raises(ValueError):
            Packet(src=0, dst=1, msg_type=MessageType.DMA, size_flits=0)

    def test_latency_requires_delivery(self, sim, mesh_3x3):
        noc = BehavioralNoc(sim, mesh_3x3)
        p = Packet(src=0, dst=1, msg_type=MessageType.DMA)
        noc.send(p)
        assert p.injected_at == 0
        assert p.delivered_at is None
        assert noc.stats.total_latency == 0
        sim.run()
        assert p.delivered_at == 2
        assert noc.stats.total_latency == 2

    def test_uids_are_unique(self):
        a = Packet(src=0, dst=1, msg_type=MessageType.DMA)
        b = Packet(src=0, dst=1, msg_type=MessageType.DMA)
        assert a.uid != b.uid


class TestPacketStats:
    def test_counting_by_type(self, sim, mesh_3x3):
        noc = BehavioralNoc(sim, mesh_3x3)
        for _ in range(3):
            noc.send(Packet(src=0, dst=1, msg_type=MessageType.COIN_STATUS))
        noc.send(Packet(src=0, dst=1, msg_type=MessageType.PM_POLL))
        stats = noc.stats
        assert stats.injected == 4
        assert stats.coin_packets == 3
        assert stats.by_type == {"coin_status": 3, "pm_poll": 1}


class TestBehavioralNoc:
    def test_delivery_invokes_handler(self, sim, mesh_3x3):
        noc = BehavioralNoc(sim, mesh_3x3)
        got = []
        noc.attach(8, got.append)
        noc.send(Packet(src=0, dst=8, msg_type=MessageType.COIN_STATUS))
        sim.run()
        assert len(got) == 1
        assert got[0].dst == 8

    def test_latency_is_hops_plus_router_delay(self, sim, mesh_3x3):
        noc = BehavioralNoc(sim, mesh_3x3)
        far = Packet(src=0, dst=8, msg_type=MessageType.DMA)
        local = Packet(src=0, dst=0, msg_type=MessageType.DMA)
        noc.send(far)
        noc.send(local)
        assert (far.hops, local.hops) == (4, 0)
        sim.run()
        assert far.delivered_at == 1 + 4  # router_delay + 4 hops
        assert local.delivered_at == 1

    def test_multi_flit_serialization(self, sim, mesh_3x3):
        noc = BehavioralNoc(sim, mesh_3x3)
        one = Packet(src=0, dst=1, msg_type=MessageType.DMA)
        four = Packet(src=0, dst=1, msg_type=MessageType.DMA, size_flits=4)
        noc.send(one)
        noc.send(four)
        sim.run()
        assert four.delivered_at == one.delivered_at + 3

    def test_delivery_time_matches_latency(self, sim, mesh_3x3):
        noc = BehavioralNoc(sim, mesh_3x3, hop_cycles=2, router_delay=3)
        got = []
        noc.attach(8, lambda p: got.append(sim.now))
        noc.send(Packet(src=0, dst=8, msg_type=MessageType.DMA))
        sim.run()
        assert got == [3 + 4 * 2]  # router_delay + 4 hops of 2 cycles

    def test_unattached_destination_drops_silently(self, sim, mesh_3x3):
        noc = BehavioralNoc(sim, mesh_3x3)
        noc.send(Packet(src=0, dst=5, msg_type=MessageType.DMA))
        sim.run()
        assert noc.stats.delivered == 1  # counted, handler absent

    def test_stats_latency_accounting(self, sim, mesh_3x3):
        noc = BehavioralNoc(sim, mesh_3x3)
        noc.attach(2, lambda p: None)
        noc.send(Packet(src=0, dst=2, msg_type=MessageType.DMA))
        sim.run()
        assert noc.stats.total_hops == 2
        assert noc.stats.mean_latency == 1 + 2

    def test_invalid_parameters_rejected(self, sim, mesh_3x3):
        with pytest.raises(ValueError):
            BehavioralNoc(sim, mesh_3x3, hop_cycles=0)
        with pytest.raises(ValueError):
            BehavioralNoc(sim, mesh_3x3, router_delay=-1)


class TestCycleNoc:
    def _make(self):
        sim = Simulator()
        topo = MeshTopology(4, 4)
        return sim, CycleNoc(sim, topo)

    def test_uncontended_delivery_roughly_one_cycle_per_hop(self):
        sim, noc = self._make()
        got = []
        noc.attach(15, lambda p: got.append(sim.now))
        noc.send(Packet(src=0, dst=15, msg_type=MessageType.DMA))
        sim.run()
        hops = noc.topology.hop_distance(0, 15)
        assert got, "packet was not delivered"
        assert hops <= got[0] <= hops + 3

    def test_contention_serializes_packets(self):
        sim, noc = self._make()
        times = []
        noc.attach(3, lambda p: times.append(sim.now))
        # Two packets sharing the full 0->3 route, injected together.
        noc.send(Packet(src=0, dst=3, msg_type=MessageType.DMA))
        noc.send(Packet(src=0, dst=3, msg_type=MessageType.DMA))
        sim.run()
        assert len(times) == 2
        assert times[1] > times[0]

    def test_distinct_planes_do_not_contend(self):
        sim, noc = self._make()
        times = []
        noc.attach(3, lambda p: times.append(sim.now))
        noc.send(Packet(src=0, dst=3, msg_type=MessageType.DMA, plane=Plane.DMA_TO_MEM))
        noc.send(
            Packet(
                src=0,
                dst=3,
                msg_type=MessageType.REGISTER_ACCESS,
                plane=Plane.MMIO_IRQ,
            )
        )
        sim.run()
        assert len(times) == 2
        assert times[0] == times[1]

    def test_all_packets_eventually_delivered_under_load(self):
        sim, noc = self._make()
        delivered = []
        for t in range(16):
            noc.attach(t, lambda p: delivered.append(p.uid))
        for src in range(16):
            for dst in range(16):
                if src != dst:
                    noc.send(Packet(src=src, dst=dst, msg_type=MessageType.DMA))
        sim.run()
        assert len(delivered) == 16 * 15

    def test_link_utilization_reported(self):
        sim, noc = self._make()
        noc.attach(3, lambda p: None)
        noc.send(Packet(src=0, dst=3, msg_type=MessageType.DMA))
        sim.run()
        assert 0.0 < noc.link_utilization(sim.now) <= 1.0


@pytest.mark.parametrize("noc_cls", [BehavioralNoc, CycleNoc])
@pytest.mark.parametrize("src, dst, bad", [(9, 0, 9), (0, 9, 9), (12, 10, 12)])
def test_send_outside_grid_raises_and_counts_nothing(noc_cls, src, dst, bad):
    sim = Simulator()
    noc = noc_cls(sim, MeshTopology(3, 3))
    packet = Packet(src=src, dst=dst, msg_type=MessageType.COIN_STATUS)
    with pytest.raises(TopologyError, match=f"^tile id {bad} outside grid of 9$"):
        noc.send(packet)
    assert noc.stats == PacketStats()
    assert packet.injected_at is None
    assert sim.pending == 0
