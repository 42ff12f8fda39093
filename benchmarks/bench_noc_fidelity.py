"""Methodology ablation: behavioral vs cycle-level NoC.

The Monte-Carlo studies use a contention-free behavioral NoC (matching
the paper's own Python emulator); the SoC runs can use either.  This
bench validates the shortcut: coin traffic is sparse single-flit
messages, so running the full 3x3 evaluation over the cycle-level
router model (link serialization, XY routing, per-plane contention)
must not change who wins or the makespans beyond a few percent.
"""

from repro.perf import register
from repro.soc.executor import WorkloadExecutor
from repro.soc.pm import PMKind, build_pm
from repro.soc.presets import soc_3x3
from repro.soc.soc import Soc
from repro.workloads.apps import autonomous_vehicle_parallel


def run_both():
    out = {}
    for fidelity in ("behavioral", "cycle"):
        for kind in (PMKind.BLITZCOIN, PMKind.ROUND_ROBIN):
            soc = Soc(soc_3x3(), noc_fidelity=fidelity)
            pm = build_pm(kind, soc, 120.0)
            result = WorkloadExecutor(
                soc, autonomous_vehicle_parallel(), pm
            ).run()
            out[(fidelity, kind.value)] = result
    return out


@register("claim.noc_fidelity", suites=("figures",))
def noc_fidelity():
    """Method: the behavioral NoC matches the cycle-level router within 5%."""
    results = run_both()

    # Makespans agree within a few percent across fidelities.
    for scheme in ("BC", "C-RR"):
        a = results[("behavioral", scheme)].makespan_us
        b = results[("cycle", scheme)].makespan_us
        assert abs(a - b) / a < 0.05, scheme

    # The winner is the same under both models.
    for fid in ("behavioral", "cycle"):
        assert (
            results[(fid, "BC")].makespan_us
            < results[(fid, "C-RR")].makespan_us
        )

    # The cap holds under contention too.
    for r in results.values():
        assert r.peak_power_mw() <= 1.10 * 120.0
    return {
        f"{fid}.{scheme}.{key}": value
        for (fid, scheme), r in results.items()
        for key, value in (
            ("makespan_us", r.makespan_us),
            ("peak_power_mw", r.peak_power_mw()),
        )
    }
