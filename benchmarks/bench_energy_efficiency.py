"""Energy-efficiency ablation: work-per-joule across schemes.

The physical mechanism behind RP's win (Section VI-A): spreading the
budget across many tiles at low voltage buys more MHz per mW than
concentrating it at the V^2-expensive top of the curve.  This bench
measures completed accelerator-cycles per joule for each scheme on the
same workload and budget.
"""

from repro.perf import register
from repro.report.post_process import throughput_per_watt
from repro.soc.executor import WorkloadExecutor
from repro.soc.pm import PMKind, build_pm
from repro.soc.presets import soc_3x3
from repro.soc.soc import Soc
from repro.workloads.apps import autonomous_vehicle_parallel

SCHEMES = (PMKind.BLITZCOIN, PMKind.BLITZCOIN_CENTRAL, PMKind.ROUND_ROBIN)


def run_all():
    out = {}
    for kind in SCHEMES:
        soc = Soc(soc_3x3())
        pm = build_pm(kind, soc, 120.0)
        result = WorkloadExecutor(
            soc, autonomous_vehicle_parallel(), pm
        ).run()
        out[kind.value] = {
            "result": result,
            "cycles_per_joule": throughput_per_watt(result),
            "energy_uj": result.energy_mj() * 1000,
        }
    return out


@register("claim.energy_efficiency", suites=("figures",))
def energy_efficiency():
    """Sec. VI-A: BC completes more accelerator cycles per joule than C-RR."""
    results = run_all()

    bc = results["BC"]["cycles_per_joule"]
    crr = results["C-RR"]["cycles_per_joule"]
    # Proportional low-voltage operation completes more work per joule
    # than C-RR's max-or-idle duty cycling.
    assert bc > 1.10 * crr
    # Same total work, so BC also finishes with less total energy.
    assert (
        results["BC"]["energy_uj"] < results["C-RR"]["energy_uj"] * 1.0
    )
    # BC and BC-C share the allocation policy: efficiency within a few
    # percent of each other.
    bcc = results["BC-C"]["cycles_per_joule"]
    assert abs(bc - bcc) / bcc < 0.10
    return {
        f"{name}.{key}": r[key]
        for name, r in results.items()
        for key in ("cycles_per_joule", "energy_uj")
    }
