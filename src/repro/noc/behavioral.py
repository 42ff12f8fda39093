"""Contention-free behavioral NoC.

Latency = ``router_delay + hops * hop_cycles + size_flits - 1``.  With the
default one-cycle-per-hop this matches the guaranteed throughput of the
paper's fixed-V/F NoC (Section IV-C) in the uncongested case, which is the
regime of the Monte-Carlo convergence studies: coin traffic is sparse
(single-flit messages, tiles mostly idle between refreshes).
"""

from __future__ import annotations

from repro.noc.fabric import NocFabric
from repro.noc.packet import Packet
from repro.noc.topology import MeshTopology
from repro.sim.kernel import Simulator


class BehavioralNoc(NocFabric):
    """Analytic-latency packet transport (no queuing, no arbitration)."""

    def __init__(
        self,
        sim: Simulator,
        topology: MeshTopology,
        *,
        hop_cycles: int = 1,
        router_delay: int = 1,
    ) -> None:
        super().__init__(sim, topology)
        if hop_cycles < 1:
            raise ValueError(f"hop_cycles must be >= 1, got {hop_cycles}")
        if router_delay < 0:
            raise ValueError(f"router_delay must be >= 0, got {router_delay}")
        self.hop_cycles = hop_cycles
        self.router_delay = router_delay

    def _transport(self, packet: Packet) -> None:
        self.sim.schedule(
            self.router_delay
            + packet.hops * self.hop_cycles
            + (packet.size_flits - 1),
            lambda p=packet: self._deliver(p),
        )
