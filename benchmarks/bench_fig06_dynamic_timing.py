"""Fig. 6: dynamic timing vs plain 1-way exchange."""

from repro.experiments import fig06_dynamic_timing
from repro.perf import register

DIMS = (4, 8, 12)
TRIALS = 4


@register(
    "fig06.dynamic_timing",
    params={"dims": DIMS, "trials": TRIALS},
    suites=("figures",),
)
def dynamic_timing(dims, trials):
    """Fig. 6: dynamic timing cuts packets without slowing convergence much."""
    result = fig06_dynamic_timing.run(dims=dims, trials=trials)

    # Back-off suppresses the chatter of converged regions: clearly
    # fewer packets over a workload phase at every SoC size.
    for d in dims:
        assert result.packet_reduction_at(d) > 1.25

    # ...without giving up convergence speed beyond a modest factor.
    metrics = {}
    for d in dims:
        plain = next(p for p in result.points["plain"] if p.d == d)
        dyn = next(p for p in result.points["dynamic"] if p.d == d)
        assert dyn.mean_cycles <= plain.mean_cycles * 1.6
        metrics[f"packet_reduction.d{d}"] = result.packet_reduction_at(d)
        metrics[f"cycles_plain.d{d}"] = plain.mean_cycles
        metrics[f"cycles_dynamic.d{d}"] = dyn.mean_cycles
    return metrics
