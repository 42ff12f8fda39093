"""Fig. 4: BlitzCoin vs TokenSmart convergence-time distributions."""

from repro.experiments import fig04_tokensmart
from repro.perf import register

DIMS = (4, 8, 12, 16)
TRIALS = 6


@register(
    "fig04.tokensmart",
    params={"dims": DIMS, "trials": TRIALS},
    suites=("figures",),
)
def tokensmart(dims, trials):
    """Fig. 4: BC converges faster than TokenSmart, increasingly so with N."""
    result = fig04_tokensmart.run(dims=dims, trials=trials)

    # BC wins at every size, and the advantage grows with N (the paper
    # reaches ~11x at N=400; we check a widening >2x trend by d=16).
    speedups = [result.speedup_at(d) for d in dims]
    assert all(s > 1.0 for s in speedups[1:])
    assert speedups[-1] > 2.0
    assert speedups[-1] > speedups[0]

    # TS's sequential ring gives it the heavier upper tail at scale.
    bc = next(p for p in result.points["BC"] if p.d == dims[-1])
    ts = next(p for p in result.points["TS"] if p.d == dims[-1])
    assert ts.p95 > bc.p95
    return {
        **{f"speedup.d{d}": s for d, s in zip(dims, speedups)},
        "p95_cycles.BC": bc.p95,
        "p95_cycles.TS": ts.p95,
    }
