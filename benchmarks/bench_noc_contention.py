"""Multi-plane NoC validation: background traffic vs coin exchange.

Section IV-B: coin messages ride Plane 5 (registers/interrupts) while
coherence and DMA have their own planes; a coin request "can be delayed
and arrive at a time where the tile has already given its coins away".
This bench injects heavy background traffic on the cycle-level NoC and
checks both halves of that design argument:

* traffic on the DMA planes does not slow coin convergence at all;
* the same traffic on Plane 5 does contend, yet the exchange still
  converges correctly (conservation and residual unaffected).
"""

import dataclasses

from repro.core.config import preferred_embodiment
from repro.core.engine import CoinExchangeEngine
from repro.noc.packet import MessageType, Packet, Plane
from repro.noc.router import CycleNoc
from repro.noc.topology import MeshTopology
from repro.perf import register
from repro.sim.kernel import Simulator
from repro.sim.rng import rng_for


def run_case(background_plane, d=4, load_period=3):
    """Convergence under periodic all-to-neighbor background traffic."""
    topo = MeshTopology(d, d)
    sim = Simulator()
    noc = CycleNoc(sim, topo)
    n = topo.n_tiles
    config = dataclasses.replace(
        preferred_embodiment(), convergence_threshold=1.0
    )
    initial = [0] * n
    initial[0] = 8 * n
    engine = CoinExchangeEngine(
        sim, noc, config, [8] * n, initial, rng=rng_for(17)
    )

    rng = rng_for(18, d)
    state = {"on": background_plane is not None}

    def inject() -> None:
        if not state["on"]:
            return
        src = int(rng.integers(0, n))
        dst = int(rng.integers(0, n))
        if src != dst:
            noc.send(
                Packet(
                    src=src,
                    dst=dst,
                    msg_type=MessageType.DMA,
                    plane=background_plane,
                    size_flits=4,
                )
            )
        sim.schedule(load_period, inject)

    if background_plane is not None:
        sim.schedule(1, inject)
    engine.start()
    converged = engine.run_until_converged(400_000)
    state["on"] = False
    engine.check_conservation()
    return {
        "converged": converged,
        "error": engine.tracker.error,
        "packets": engine.coin_packets,
    }


@register("claim.noc_contention", suites=("figures",))
def noc_contention():
    """Sec. IV-B: DMA-plane load leaves coin convergence on Plane 5 untouched."""
    results = {
        "quiet": run_case(None),
        "dma-plane load": run_case(Plane.DMA_TO_MEM),
        "plane-5 load": run_case(Plane.MMIO_IRQ),
    }

    quiet = results["quiet"]["converged"]
    dma = results["dma-plane load"]["converged"]
    p5 = results["plane-5 load"]["converged"]
    assert quiet is not None and dma is not None and p5 is not None
    # Different planes do not contend: DMA load leaves convergence
    # essentially untouched.
    assert abs(dma - quiet) <= 0.15 * quiet + 50
    # Plane-5 load shares links with coin messages: it may delay
    # convergence, but correctness (conservation, residual) holds.
    assert results["plane-5 load"]["error"] < 1.0
    return {
        "converged_cycles.quiet": quiet,
        "converged_cycles.dma_plane": dma,
        "converged_cycles.plane5": p5,
        "error.plane5": results["plane-5 load"]["error"],
    }
