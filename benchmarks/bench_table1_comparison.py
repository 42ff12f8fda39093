"""Table I: implemented-strategy comparison rows."""

from repro.experiments import fig18_4x4_eval, table1
from repro.perf import register


@register("table1.comparison", suites=("figures",))
def comparison():
    """Table I: control, DVFS levels and scaling class per strategy."""
    f18 = fig18_4x4_eval.run()
    result = table1.run(f18)

    rows = result.rows
    # Structure: 64 DVFS levels for the coin-based schemes (6-bit
    # counters), decentralized control only for BC and TS.
    assert rows["BC"].dvfs_levels == 64
    assert rows["BC"].control == "Decentralized"
    assert rows["BC-C"].control == "Centralized"
    assert rows["C-RR"].control == "Centralized"
    assert rows["TS"].control == "Decentralized"
    assert all(r.power_cap for r in rows.values())

    # Scaling classes match the paper's table.
    assert rows["BC"].scaling == "O(sqrt(N))"
    assert rows["BC-C"].scaling == "O(N)"
    assert rows["TS"].scaling == "O(N)"

    # Measured responses at N=13: BC fastest in the parallel regime
    # (the table's 0.39-0.77 us row vs 3.7-8.0 us for centralized).
    bc_par = f18.get("BC", "WL-Par", 450.0).mean_response_us
    metrics = {f"dvfs_levels.{name}": r.dvfs_levels for name, r in rows.items()}
    metrics["response_us.BC.WL-Par.450mw"] = bc_par
    for scheme in ("BC-C", "C-RR"):
        assert bc_par < f18.get(scheme, "WL-Par", 450.0).mean_response_us
        metrics[f"response_us.{scheme}.WL-Par.450mw"] = f18.get(
            scheme, "WL-Par", 450.0
        ).mean_response_us
    return metrics
