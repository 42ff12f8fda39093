"""Fig. 9 ablation: UVFR vs a conventional dual-loop actuator.

The paper's motivation for UVFR: conventional separate voltage and
frequency loops need a droop guard-band (higher voltage for the same
frequency => more power) and a sequenced voltage-settle-then-relock
transition.  This bench quantifies both penalties across the frequency
range of every accelerator class.
"""

from repro.dvfs.actuator import ConventionalDualLoop, TileActuator
from repro.perf import register
from repro.power.characterization import ACCELERATOR_CATALOG, get_curve
from repro.sim.kernel import Simulator


def sweep():
    rows = {}
    for name in sorted(ACCELERATOR_CATALOG):
        curve = get_curve(name)
        conv = ConventionalDualLoop(curve)
        sim = Simulator()
        uvfr = TileActuator(sim, curve)
        overheads = [
            conv.overhead_vs_uvfr(curve.spec.f_max_hz * frac)
            for frac in (0.4, 0.6, 0.8)
        ]
        rows[name] = {
            "mean_power_overhead": sum(overheads) / len(overheads),
            "uvfr_settle": uvfr.settle_cycles,
            "conventional_settle": conv.settle_cycles(),
        }
    return rows


@register("claim.uvfr_vs_conventional", suites=("figures",))
def uvfr_vs_conventional():
    """Fig. 9: a conventional dual loop pays guard-band power and settles slower."""
    rows = sweep()
    for name, r in rows.items():
        # The guard-band costs real power at mid-range operating points...
        assert r["mean_power_overhead"] > 0.03, name
        # ...and the sequenced transition is slower than UVFR's.
        assert r["conventional_settle"] > r["uvfr_settle"], name
    return {f"{name}.{key}": v for name, r in rows.items() for key, v in r.items()}
