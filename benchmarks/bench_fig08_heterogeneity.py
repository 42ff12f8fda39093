"""Fig. 8: convergence time vs SoC size and heterogeneity."""

from repro.experiments import fig08_heterogeneity
from repro.perf import register

DIMS = (4, 8, 12)
ACC_TYPES = (1, 2, 4, 8)
TRIALS = 5


@register(
    "fig08.heterogeneity",
    params={"dims": DIMS, "acc_types_values": ACC_TYPES, "trials": TRIALS},
    suites=("figures",),
)
def heterogeneity(dims, acc_types_values, trials):
    """Fig. 8: convergence time grows with N; start error with heterogeneity."""
    result = fig08_heterogeneity.run(
        dims=dims, acc_types_values=acc_types_values, trials=trials
    )

    # All configurations converge.
    for p in result.points.values():
        assert p.converged_fraction == 1.0

    # Convergence time grows with SoC size for every heterogeneity level.
    metrics = {}
    for at in acc_types_values:
        series = result.series_for_acc_types(at)
        assert series[-1].mean_cycles > series[0].mean_cycles
        for p in series:
            metrics[f"cycles.acc{at}.d{p.d}"] = p.mean_cycles

    # Higher heterogeneity -> larger start error (the paper's coupling),
    # checked on the largest SoC between the extremes.
    errors = dict(result.start_error_by_acc_types(dims[-1]))
    assert errors[acc_types_values[-1]] > errors[1]
    for at, error in errors.items():
        metrics[f"start_error.acc{at}.d{dims[-1]}"] = error
    return metrics
