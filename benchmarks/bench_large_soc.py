"""Mid-scale SoC simulation: the trend Fig. 21 extrapolates, simulated.

The paper simulates N = 6 and N = 13 and extrapolates to hundreds of
accelerators analytically.  Here we *simulate* a synthetic 8x8 SoC
(61 managed accelerators) end-to-end under BC, BC-C and C-RR and check
that the small-SoC trends hold — and strengthen — at 5x the evaluated
scale: BC's response advantage grows with N while its throughput lead
persists and the cap still holds.
"""

from repro.perf import register
from repro.soc.executor import WorkloadExecutor
from repro.soc.pm import PMKind, build_pm
from repro.soc.soc import Soc
from repro.soc.synthetic import (
    suggested_budget_mw,
    synthetic_soc,
    synthetic_workload,
)

SCHEMES = (PMKind.BLITZCOIN, PMKind.BLITZCOIN_CENTRAL, PMKind.ROUND_ROBIN)


def run_all():
    config = synthetic_soc(8, seed=42)
    budget = suggested_budget_mw(config, 0.30)
    out = {"n": len(config.managed_accelerators()), "budget": budget}
    for kind in SCHEMES:
        soc = Soc(config)
        pm = build_pm(kind, soc, budget)
        graph = synthetic_workload(config, seed=42)
        out[kind.value] = WorkloadExecutor(soc, graph, pm).run()
    return out


@register("claim.large_soc", suites=("figures",))
def large_soc():
    """Fig. 21 trend, simulated: an 8x8 SoC (N=61) under BC, BC-C and C-RR."""
    results = run_all()
    budget = results["budget"]

    bc = results["BC"]
    bcc = results["BC-C"]
    crr = results["C-RR"]
    # Cap holds for everyone at this scale.
    for r in (bc, bcc, crr):
        assert r.peak_power_mw() <= 1.10 * budget
    # The centralized O(N) loop is now ~10x slower to respond; BC's
    # advantage *grows* with N, as the scaling model predicts.
    assert bc.mean_response_us < bcc.mean_response_us / 3
    assert bc.mean_response_us < crr.mean_response_us / 3
    # Throughput: BC at least matches BC-C and beats C-RR.
    assert bc.makespan_us <= bcc.makespan_us * 1.05
    assert bc.makespan_us < crr.makespan_us
    metrics = {"n": results["n"], "budget_mw": budget}
    for kind in SCHEMES:
        r = results[kind.value]
        metrics[f"{kind.value}.makespan_us"] = r.makespan_us
        metrics[f"{kind.value}.response_us"] = r.mean_response_us
        metrics[f"{kind.value}.peak_power_mw"] = r.peak_power_mw()
    return metrics
