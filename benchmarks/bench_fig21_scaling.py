"""Fig. 21: extrapolation to SoCs with hundreds of accelerators.

Fits the scaling constants from this repository's own measured response
times (as Section VI-D fits from the N=6/7/13 measurements) and checks
the N_max and PM-overhead orderings.
"""

from repro.experiments import fig17_3x3_eval, fig20_response, fig21_scaling
from repro.perf import register


def _measured_responses():
    """(N, response_us) samples from the SoC experiments."""
    f17 = fig17_3x3_eval.run()
    f20 = fig20_response.run()
    out = {"BC": [], "BC-C": [], "C-RR": []}
    for scheme in out:
        r17 = f17.get(scheme, "WL-Par", 120.0).mean_response_us
        if r17 > 0:
            out[scheme].append((6, r17))
        r20 = f20.measurements[scheme].response_us
        if r20:
            out[scheme].append((7, r20))
    return out


@register("fig21.scaling", suites=("figures",))
def scaling():
    """Fig. 21: fitted to measured responses, BC supports the most accelerators."""
    result = fig21_scaling.run(measured_responses=_measured_responses())

    # N_max ordering at every T_w: BC > TS > BC-C > C-RR > (roughly) PT.
    for i, t_w in enumerate(result.t_w_values_us):
        assert result.n_max["BC"][i] > result.n_max["TS"][i]
        assert result.n_max["TS"][i] > result.n_max["BC-C"][i]
        assert result.n_max["BC-C"][i] > result.n_max["C-RR"][i]
        # Paper: BC supports 5.7-13.3x more than BC-C/C-RR and 3.2-5.0x
        # more than hardware-scaled PT; require >2x with fitted taus.
        assert result.n_max_advantage(t_w, "C-RR") > 2.0
        assert result.n_max_advantage(t_w, "PT") > 1.5

    # PM-overhead ordering at N=100, T_w=10 ms (the worked example:
    # C-RR 96%, BC-C 66%, BC 2%).
    idx = result.n_values.index(100) if 100 in result.n_values else -1
    assert idx >= 0
    assert (
        result.pm_fraction["BC"][idx]
        < result.pm_fraction["TS"][idx]
        < result.pm_fraction["BC-C"][idx]
        < result.pm_fraction["C-RR"][idx]
    )
    assert result.pm_fraction["BC"][idx] < 0.25
    metrics = {
        f"pm_fraction.{scheme}.n100": result.pm_fraction[scheme][idx]
        for scheme in ("BC", "TS", "BC-C", "C-RR")
    }
    for i, t_w in enumerate(result.t_w_values_us):
        for scheme in ("BC", "TS", "BC-C", "C-RR"):
            metrics[f"n_max.{scheme}.{t_w:g}us"] = result.n_max[scheme][i]
    return metrics
