"""Coin-precision ablation: why the hardware uses 6-bit counters.

Section IV-A: BlitzCoin's 64 power levels per tile are "much finer than
previous solutions, which implement between 2 and 5 power levels".
This bench sweeps the counter width on the 3x3 evaluation: prior-work
granularity (2-3 bits) loses throughput and even overshoots the cap
through quantization, while widths beyond 6 bits buy nothing.
"""

from repro.perf import register
from repro.soc.executor import WorkloadExecutor
from repro.soc.pm import BlitzCoinPM
from repro.soc.presets import soc_3x3
from repro.soc.soc import Soc
from repro.workloads.apps import autonomous_vehicle_parallel

BITS = (2, 3, 4, 6, 8)


def run_sweep():
    out = {}
    for bits in BITS:
        soc = Soc(soc_3x3())
        pm = BlitzCoinPM(soc, 120.0, coin_bits=bits)
        out[bits] = WorkloadExecutor(
            soc, autonomous_vehicle_parallel(), pm
        ).run()
    return out


@register("claim.coin_precision", suites=("figures",))
def coin_precision():
    """Sec. IV-A: 64 power levels (6-bit counters) are the precision knee."""
    results = run_sweep()

    six = results[6]
    # Prior-work granularity (4 levels) costs heavily in throughput.
    assert results[2].makespan_us > 1.4 * six.makespan_us
    # From ~16 levels up, throughput is within a few percent of 64.
    assert results[4].makespan_us < 1.05 * six.makespan_us
    # Wider than 6 bits buys nothing measurable.
    assert abs(results[8].makespan_us - six.makespan_us) < 0.03 * six.makespan_us
    # Fine-grained quantization is also what keeps the cap honest:
    # 6-bit peaks stay under budget (+ slew transients) while 2-bit
    # quantization overshoots it badly.
    assert six.peak_power_mw() <= 1.10 * 120.0
    assert results[2].peak_power_mw() > 1.10 * 120.0
    return {
        **{f"makespan_us.{b}bit": r.makespan_us for b, r in results.items()},
        **{f"peak_power_mw.{b}bit": r.peak_power_mw() for b, r in results.items()},
    }
