"""Fig. 17: execution and response time on the 3x3 SoC."""

import statistics

from repro.experiments import fig17_3x3_eval
from repro.perf import register


@register("fig17.3x3_eval", suites=("figures",))
def eval_3x3():
    """Fig. 17: on the 3x3 SoC BC beats C-RR and responds fastest."""
    result = fig17_3x3_eval.run()

    # Headline: BC beats C-RR on throughput, ~25-34% in the paper;
    # require a clear mean advantage and no large per-case regression.
    assert result.mean_speedup(vs="C-RR") > 1.15
    for mode, budget in fig17_3x3_eval.CASES:
        assert result.speedup(mode, budget, vs="C-RR") > 0.95

    # BC is never meaningfully slower than BC-C (same allocation).
    assert result.mean_speedup(vs="BC-C") > 0.97

    # Response time: BC is the fastest scheme in every configuration,
    # and markedly faster than both centralized schemes on average
    # (paper: 10.1x vs BC-C, 12.1x vs C-RR).
    for mode, budget in fig17_3x3_eval.CASES:
        bc = result.get("BC", mode, budget).mean_response_us
        assert bc < result.get("BC-C", mode, budget).mean_response_us
        assert bc < result.get("C-RR", mode, budget).mean_response_us

    mean_impr_crr = statistics.mean(
        result.response_improvement(mode, budget, vs="C-RR")
        for mode, budget in fig17_3x3_eval.CASES
    )
    assert mean_impr_crr > 3.0
    return {
        "mean_speedup.C-RR": result.mean_speedup(vs="C-RR"),
        "mean_speedup.BC-C": result.mean_speedup(vs="BC-C"),
        "mean_response_improvement.C-RR": mean_impr_crr,
        **{
            f"speedup.C-RR.{mode}.{budget:g}mw": result.speedup(
                mode, budget, vs="C-RR"
            )
            for mode, budget in fig17_3x3_eval.CASES
        },
        **{
            f"{cell.scheme}.{cell.mode}.{cell.budget_mw:g}mw.response_us": (
                cell.mean_response_us
            )
            for cell in result.cells.values()
        },
    }
