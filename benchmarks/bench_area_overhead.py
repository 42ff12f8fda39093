"""Section IV-A claim: <1% per-tile area overhead, far below prior art.

Also quantifies the coin-exchange NoC traffic share in steady state —
the other "negligible overhead" dimension: once converged, dynamic
timing throttles coin messages to a vanishing fraction of the NoC's
link capacity.
"""

from repro.core.config import preferred_embodiment
from repro.core.engine import CoinExchangeEngine
from repro.noc.router import CycleNoc
from repro.noc.topology import MeshTopology
from repro.perf import register
from repro.power.area import TileAreaBudget, comparison_rows
from repro.sim.kernel import Simulator
from repro.sim.rng import rng_for


def steady_state_traffic_share(d=6, settle=100_000, window=200_000):
    """Fraction of NoC link capacity used by coin traffic at steady state."""
    topo = MeshTopology(d, d)
    sim = Simulator()
    noc = CycleNoc(sim, topo)
    n = topo.n_tiles
    engine = CoinExchangeEngine(
        sim,
        noc,
        preferred_embodiment(),
        [8] * n,
        [8] * n,
        rng=rng_for(23),
    )
    engine.start()
    sim.run(until=settle)
    flits_before = sum(r.flits_forwarded for r in noc.routers)
    sim.run(until=settle + window)
    flits = sum(r.flits_forwarded for r in noc.routers) - flits_before
    capacity = 4 * n * window  # four outgoing links per tile
    return flits / capacity


@register("claim.area_overhead", suites=("figures",))
def area_overhead():
    """Sec. IV-A: under 1% tile area, and negligible steady-state coin traffic."""
    area = dict(comparison_rows(1.0))
    traffic_share = steady_state_traffic_share()

    ours = area["BlitzCoin (this work)"]
    # The paper's headline: under 1% per tile.
    assert ours < 0.01
    # And 30-70x below switched-capacitor regulators.
    budget = TileAreaBudget(1.0)
    advantage = budget.advantage_over("switched-cap UVFR [51]")
    assert advantage > 30
    # Steady-state coin traffic is a negligible share of the NoC.
    assert traffic_share < 0.005
    return {
        "area_fraction": ours,
        "switched_cap_advantage": advantage,
        "traffic_share": traffic_share,
    }
