"""Empirical "keeping up" study (the criterion behind Figs. 1 and 21).

The paper's analytical model says an N=100 SoC is supportable by
BlitzCoin for T_w >= 0.2 ms and not for much faster churn.  This bench
runs the actual coin engine under random phase churn at N=100 and
measures the fraction of time the allocation is at its current
equilibrium: the empirical crossover must sit where the model puts it.
"""

from repro.experiments import sustained_load
from repro.perf import register

T_W_VALUES_US = (20.0, 60.0, 200.0, 600.0)


def run_sweep():
    return [
        sustained_load.run_sustained(
            10, t_w, seed=0, horizon_us=min(5 * t_w, 1_500.0)
        )
        for t_w in T_W_VALUES_US
    ]


@register("claim.sustained_load", suites=("figures",))
def sustained():
    """Figs. 1/21 criterion: at N=100 BC keeps up from T_w ~ 0.2 ms on."""
    by_tw = {r.t_w_us: r for r in run_sweep()}
    # Far below the crossover: the PM is stale almost always.
    assert not by_tw[20.0].keeps_up
    # At and above the paper's supported point, it keeps up.
    assert by_tw[200.0].keeps_up
    assert by_tw[600.0].keeps_up
    # Converged fraction is monotone in T_w across the sweep.
    fractions = [by_tw[t].converged_fraction for t in T_W_VALUES_US]
    assert fractions == sorted(fractions)
    return {
        f"converged_fraction.{t:g}us": f
        for t, f in zip(T_W_VALUES_US, fractions)
    }
