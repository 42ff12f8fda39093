"""Fault-resilience degradation curves (Section II-B robustness claim).

BlitzCoin has no single point of failure: convergence degrades
gracefully as the fabric drops packets, and survives the death of any
tile (the dead tile's coins are reconciled and re-minted onto the
survivors).  A centralized controller on the same lossy fabric limps
through poll retries — and never converges again once the controller
tile itself dies.
"""

from repro.experiments import fault_sweep
from repro.perf import register

RATES = (0.0, 0.05, 0.2)


@register(
    "claim.fault_resilience",
    params={"rates": RATES, "d": 6, "trials": 2, "base_seed": 7},
    suites=("figures",),
)
def fault_resilience(rates, d, trials, base_seed):
    """Sec. II-B: BC degrades gracefully under loss and survives a dead tile."""
    result = fault_sweep.run(rates=rates, d=d, trials=trials, base_seed=base_seed)

    bc = result.curve("blitzcoin")
    bc_killed = result.curve("blitzcoin_killed")
    cent = result.curve("centralized")
    cent_killed = result.curve("centralized_killed")

    # Shape 1: BlitzCoin converges at every swept loss rate, even with
    # a tile killed mid-transient.
    assert all(p.converged_fraction == 1.0 for p in bc)
    assert all(p.converged_fraction == 1.0 for p in bc_killed)

    # Shape 2: graceful degradation — losing packets costs cycles
    # monotonically in rate, it does not cost convergence.
    assert bc[0].mean_cycles < bc[-1].mean_cycles

    # Shape 3: the killed tile's coins are detected and re-minted.
    assert all(p.mean_reconciled != 0.0 for p in bc_killed)

    # Shape 4: the centralized scheme still works on a lossy fabric
    # (bounded retries) but falls off a cliff when its controller dies:
    # no trial at any rate ever converges.
    assert all(p.converged_fraction == 1.0 for p in cent)
    assert cent[0].mean_cycles < cent[-1].mean_cycles
    # ...and the limping is visible: drops hit its polls/settings,
    # which it survives by retrying (mean_timeouts counts poll retries).
    assert cent[-1].mean_discarded > 0
    assert cent[-1].mean_timeouts > 0
    assert all(p.converged_fraction == 0.0 for p in cent_killed)
    assert all(p.mean_cycles == float("inf") for p in cent_killed)
    return {
        "blitzcoin.cycles_clean": bc[0].mean_cycles,
        "blitzcoin.cycles_lossiest": bc[-1].mean_cycles,
        "blitzcoin.converged_min": min(p.converged_fraction for p in bc),
        "blitzcoin_killed.converged_min": min(
            p.converged_fraction for p in bc_killed
        ),
        "blitzcoin_killed.reconciled_min": min(
            abs(p.mean_reconciled) for p in bc_killed
        ),
        "centralized.converged_min": min(p.converged_fraction for p in cent),
        "centralized.cycles_clean": cent[0].mean_cycles,
        "centralized.cycles_lossiest": cent[-1].mean_cycles,
        "centralized.discarded_lossiest": cent[-1].mean_discarded,
        "centralized.timeouts_lossiest": cent[-1].mean_timeouts,
        "centralized_killed.converged_max": max(
            p.converged_fraction for p in cent_killed
        ),
    }
