"""Fig. 1: response-time scalability of power-management strategies."""

from repro.experiments import fig01_scalability
from repro.perf import register


@register("fig01.scalability", suites=("figures",))
def scalability():
    """Fig. 1: N_max per strategy and T_w; decentralized >> HW >> SW."""
    result = fig01_scalability.run()

    # Shape: decentralized >> HW-centralized >> SW-centralized, at every T_w.
    for t_w in fig01_scalability.T_W_VALUES_US:
        dec = result.n_max[("Decentralized", t_w)]
        hw = result.n_max[("HW-centralized", t_w)]
        sw = result.n_max[("SW-centralized", t_w)]
        assert dec > 2 * hw > 4 * sw

    # The paper's anchors: SW management cannot even reach ~10-15
    # accelerators at T_w <= 20 ms; decentralized handles N >= 100 at
    # millisecond T_w.
    assert result.n_max[("SW-centralized", 20_000.0)] < 16
    assert result.n_max[("Decentralized", 2_000.0)] > 100

    # Response curves are monotone in N; interval curves decay as T_w/N.
    for series in result.response_us.values():
        assert series == sorted(series)
    for series in result.interval_us.values():
        assert series == sorted(series, reverse=True)
    return {
        f"n_max.{strategy}.{t_w:g}us": n
        for (strategy, t_w), n in result.n_max.items()
    }
