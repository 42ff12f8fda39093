"""Section VI-A ablation: Relative vs Absolute Proportional allocation.

The paper reports a consistent 3.0-4.1% throughput gain for RP over AP
at 60-120 mW budgets, attributed to tiles running at more efficient
(V, F) points; the rest of the evaluation then uses RP.
"""

import statistics

from repro.experiments import fig17_3x3_eval
from repro.perf import register

BUDGETS = (60.0, 90.0, 120.0)


@register("claim.ap_vs_rp", params={"budgets": BUDGETS}, suites=("figures",))
def ap_vs_rp(budgets):
    """Sec. VI-A: RP allocation beats AP on mean throughput over 60-120 mW."""
    result = fig17_3x3_eval.run_ap_vs_rp(budgets=budgets)

    # Shape: RP wins on average across budgets.  (The paper's 3-4% is
    # an average over steady workloads; individual budget points in the
    # behavioral model are noisier.)
    mean_gain = statistics.mean(result.rp_gain_percent(b) for b in budgets)
    assert mean_gain > 0.0
    return {
        "mean_rp_gain_percent": mean_gain,
        **{f"rp_gain_percent.{b:g}mw": result.rp_gain_percent(b) for b in budgets},
    }
