"""Fig. 19: the silicon-measurement experiments (simulated)."""

from repro.experiments import fig19_silicon
from repro.perf import register
from repro.sim import cycles_to_us


@register("fig19.silicon", suites=("figures",))
def silicon():
    """Fig. 19: PM-cluster budget use, redistribution gains and UVFR settling."""
    result = fig19_silicon.run()

    # Budget enforcement with high utilization (paper: 97% of budget,
    # cap never exceeded).
    metrics = {}
    for n, run in result.runs.items():
        assert run.peak_power_mw <= 1.05 * fig19_silicon.PM_CLUSTER_BUDGET_MW
        assert run.budget_utilization > 0.70
        metrics[f"peak_power_mw.n{n}"] = run.peak_power_mw
        metrics[f"budget_utilization.n{n}"] = run.budget_utilization
        metrics[f"throughput_gain_percent.n{n}"] = run.throughput_gain_percent

    # Dynamic redistribution beats the static split for every workload
    # size, with larger gains for more accelerators (paper: 27% at 7
    # accelerators down to 19% at 3).
    gains = {
        n: run.throughput_gain_percent for n, run in result.runs.items()
    }
    assert gains[7] > 5.0
    assert gains[7] > gains[3]

    # Coin redistribution settles within ~one coin of target (paper:
    # residual below one coin; we allow in-flight snapshot slack).
    assert result.coin_snapshot.worst_residual_coins <= 2.0

    # The UVFR transition settles in the paper's ~microsecond regime.
    assert result.uvfr_transition.settled
    assert cycles_to_us(result.uvfr_transition.cycles) < 3.0

    # BlitzCoin overhead vs the FFT No-PM tile: < 2%.
    assert result.pm_overhead_percent < 2.0
    metrics["worst_residual_coins"] = result.coin_snapshot.worst_residual_coins
    metrics["uvfr_settle_cycles"] = result.uvfr_transition.cycles
    metrics["pm_overhead_percent"] = result.pm_overhead_percent
    return metrics
