"""Fig. 18: execution and response time on the 4x4 SoC."""

from repro.experiments import fig18_4x4_eval
from repro.perf import register


@register("fig18.4x4_eval", suites=("figures",))
def eval_4x4():
    """Fig. 18: the 3x3 trends repeat on the 4x4 SoC (N=13)."""
    result = fig18_4x4_eval.run()

    # The 3x3 trends repeat at N=13: BC beats C-RR (paper: ~25%).
    assert result.mean_speedup(vs="C-RR") > 1.15
    for mode, budget in fig18_4x4_eval.CASES:
        assert result.speedup(mode, budget, vs="C-RR") > 0.95

    # BC matches BC-C's allocation-driven throughput.
    assert result.mean_speedup(vs="BC-C") > 0.97

    # Response: in the parallel workloads (the paper's headline regime,
    # many concurrent activity edges) BC responds well before the O(N)
    # centralized loop completes.
    metrics = {
        "mean_speedup.C-RR": result.mean_speedup(vs="C-RR"),
        "mean_speedup.BC-C": result.mean_speedup(vs="BC-C"),
        **{
            f"speedup.C-RR.{mode}.{budget:g}mw": result.speedup(
                mode, budget, vs="C-RR"
            )
            for mode, budget in fig18_4x4_eval.CASES
        },
    }
    for budget in (450.0, 900.0):
        bc = result.get("BC", "WL-Par", budget).mean_response_us
        crr = result.get("C-RR", "WL-Par", budget).mean_response_us
        assert bc < crr
        metrics[f"BC.WL-Par.{budget:g}mw.response_us"] = bc
        metrics[f"C-RR.WL-Par.{budget:g}mw.response_us"] = crr
    return metrics
