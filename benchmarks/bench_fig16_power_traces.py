"""Fig. 16: power traces on the 3x3 SoC (WL-Par and WL-Dep)."""

from repro.experiments import fig16_power_traces
from repro.perf import register


@register("fig16.power_traces", suites=("figures",))
def power_traces():
    """Fig. 16: every scheme holds the cap; BC uses the budget best."""
    result = fig16_power_traces.run()

    metrics = {}
    for (scheme, mode), trace in result.traces.items():
        # Every scheme enforces the power cap.
        assert trace.cap_respected, (scheme, mode)
        # The trace actually exercises the budget (not everyone idles).
        assert trace.power_mw.max() > 0.5 * trace.budget_mw
        metrics[f"{scheme}.{mode}.max_power_mw"] = trace.power_mw.max()
        metrics[f"{scheme}.{mode}.makespan_us"] = trace.makespan_us

    # BlitzCoin and BC-C utilize the budget better than C-RR in WL-Par
    # (C-RR wastes headroom through its discrete max/min levels).
    for mode in ("WL-Par",):
        bc = result.get("BC", mode).result.average_power_mw()
        crr = result.get("C-RR", mode).result.average_power_mw()
        assert bc > crr
        metrics[f"BC.{mode}.average_power_mw"] = bc
        metrics[f"C-RR.{mode}.average_power_mw"] = crr

    # BlitzCoin's runtime is the shortest or tied in both dataflows
    # (WL-Dep's serial single-task phases are the centralized schemes'
    # best case — a one-shot reallocation moves the whole pool — so BC
    # is allowed parity there rather than a win).
    for mode in ("WL-Par", "WL-Dep"):
        bc = result.get("BC", mode).makespan_us
        for other in ("BC-C", "C-RR"):
            assert bc <= result.get(other, mode).makespan_us * 1.05
    return metrics
