"""Fig. 3: packets and cycles to convergence, 1-way vs 4-way."""

from repro.experiments import fig03_convergence
from repro.perf import register

DIMS = (4, 8, 12, 16)
TRIALS = 5


@register(
    "fig03.full",
    params={"dims": DIMS, "trials": TRIALS},
    suites=("figures",),
    profile=True,
    description="The full Fig. 3 sweep (1-way vs 4-way, d up to 16).  "
    "Declares no counters: a counted repetition would add a second run "
    "of about 45 s (23 s bare, 45 s under the counter tap, same peak "
    "RSS, 2-vCPU host) to the figures suite.",
)
def run_fig03(dims, trials):
    result = fig03_convergence.run(tuple(dims), trials)
    one = result.curve("1-way")
    four = result.curve("4-way")

    # Every point converged.
    for p in one + four:
        assert p.converged_fraction == 1.0

    # Time grows with SoC size for both techniques but sub-linearly in
    # N: growing N by 16x (d=4 -> 16) costs far less than 16x in time.
    for pts in (one, four):
        assert pts[-1].mean_cycles > pts[0].mean_cycles
        assert pts[-1].mean_cycles < 16 * pts[0].mean_cycles

    # 4-way needs fewer exchanges (it converges at least comparably
    # fast) but spends more messages per exchange; the paper's headline
    # is comparable convergence with higher 4-way message complexity.
    for p1, p4 in zip(one, four):
        assert p4.mean_cycles < 2.5 * p1.mean_cycles

    metrics = {}
    for key, pts in (("1way", one), ("4way", four)):
        metrics[f"cycles_{key}"] = sum(p.mean_cycles for p in pts)
        metrics[f"packets_{key}"] = sum(p.mean_packets for p in pts)
        for p in pts:
            metrics[f"cycles_{key}.d{p.d}"] = p.mean_cycles
    return metrics
