"""2D-mesh network-on-chip substrate.

Two fidelities share a single interface (:class:`NocFabric`):

* :class:`CycleNoc` — a cycle-level multi-plane mesh with per-router
  round-robin arbitration and one-cycle-per-hop throughput, used for the
  SoC-level experiments (Figs. 16-20).
* :class:`BehavioralNoc` — a contention-free hop-latency model used for
  the Monte-Carlo convergence studies (Figs. 3-8), matching the paper's
  own Python emulator.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "behavioral": ["BehavioralNoc"],
        "fabric": ["DeliveryHandler", "NocFabric"],
        "packet": ["MessageType", "Packet", "Plane"],
        "router": ["CycleNoc", "Router"],
        "topology": ["MeshTopology", "TopologyError"],
    },
)
