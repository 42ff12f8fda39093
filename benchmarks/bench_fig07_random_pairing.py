"""Fig. 7: worst-case residual error with and without random pairing."""

from repro.experiments import fig07_random_pairing
from repro.perf import register

DIMS = (10, 20)  # N = 100 and N = 400, as in the paper
TRIALS = 6


@register(
    "fig07.random_pairing",
    params={"dims": DIMS, "trials": TRIALS, "settle_cycles": 100_000},
    suites=("figures",),
)
def random_pairing(dims, trials, settle_cycles):
    """Fig. 7: random pairing keeps every tile within one coin of its target."""
    result = fig07_random_pairing.run(
        dims=dims, trials=trials, settle_cycles=settle_cycles
    )

    metrics = {}
    for d in dims:
        with_rp = result.get(d, True)
        without_rp = result.get(d, False)
        # With random pairing every run lands within the one-coin
        # quantization band (Fig. 7, red histograms).
        assert with_rp.stuck_fraction == 0.0
        assert with_rp.max_error <= 1.5
        # Without it some tiles fail to converge, visibly worse than
        # the paired runs.
        assert without_rp.max_error > with_rp.max_error
        metrics[f"stuck_fraction_paired.d{d}"] = with_rp.stuck_fraction
        metrics[f"max_error_paired.d{d}"] = with_rp.max_error
        metrics[f"max_error_unpaired.d{d}"] = without_rp.max_error
    # The unpaired deviation grows with SoC size (blue histograms).
    assert (
        result.get(20, False).max_error > result.get(10, False).max_error
    )
    return metrics
