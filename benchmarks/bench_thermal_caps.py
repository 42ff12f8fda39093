"""Section III-A/III-B ablation: thermal (hotspot) coin caps.

BlitzCoin can bound any tile's allocation with a hard per-tile coin cap;
coins rejected by a capped tile stay with its neighbors, so the global
budget is preserved while the hotspot is held below its ceiling.
"""

import dataclasses

from repro.core.config import preferred_embodiment
from repro.core.engine import CoinExchangeEngine
from repro.noc.behavioral import BehavioralNoc
from repro.noc.topology import MeshTopology
from repro.perf import register
from repro.sim.kernel import Simulator


def run_capped(cap: int, d: int = 4, horizon: int = 120_000):
    """One hungry center tile under a thermal cap; returns holdings."""
    topo = MeshTopology(d, d)
    sim = Simulator()
    noc = BehavioralNoc(sim, topo)
    n = topo.n_tiles
    center = topo.center_tile()
    max_vec = [4] * n
    max_vec[center] = 64  # the hotspot wants far more than its cap
    config = dataclasses.replace(
        preferred_embodiment(),
        thermal_caps={t: (cap if t == center else 63) for t in range(n)},
    )
    engine = CoinExchangeEngine(
        sim, noc, config, max_vec, [8] * n
    )
    engine.start()
    sim.run(until=horizon)
    engine.check_conservation()
    return engine, center


@register("claim.thermal_caps", suites=("figures",))
def thermal_caps():
    """Sec. III-A: a per-tile coin cap holds a hungry hotspot at or below it."""
    results = {cap: run_capped(cap) for cap in (12, 24, 63)}

    # The hotspot is held at/below its cap, and tighter caps hold fewer
    # coins; the uncapped-equivalent (63) attracts the most.
    holdings = {
        cap: engine.coins(center).has
        for cap, (engine, center) in results.items()
    }
    for cap, held in holdings.items():
        assert held <= cap
    assert holdings[12] <= holdings[24] <= holdings[63]
    assert holdings[63] > 20  # the hungry tile does attract coins
    return {f"hotspot_coins.cap{cap}": held for cap, held in holdings.items()}
