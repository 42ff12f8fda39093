"""Streaming extension: sustained frame rate over a pipelined workload.

Unrolls the autonomous-vehicle pipeline into several concurrent frames
(software pipelining) and measures amortized per-frame latency under
each scheme.  Every frame boundary is a burst of activity changes, so
power-management response compounds with the frame count.
"""

from repro.experiments import streaming
from repro.perf import register


@register("claim.streaming", params={"frames": 4}, suites=("figures",))
def frame_rate(frames):
    """Streaming mini-ERA: BC sustains a higher frame rate than C-RR."""
    result = streaming.run(frames=frames)

    # BC sustains a clearly higher frame rate than C-RR...
    assert result.frame_speedup(vs="C-RR") > 1.15
    # ...and stays within 10% of the centralized proportional scheme on
    # this 6-accelerator SoC (BC-C's O(N) loop is still cheap at N=6;
    # bench_large_soc shows the gap inverting at N~60).
    assert result.frame_speedup(vs="BC-C") > 0.90
    # Response advantage holds throughout the stream.
    bc = result.cells["BC"].mean_response_us
    assert bc < result.cells["BC-C"].mean_response_us
    assert bc < result.cells["C-RR"].mean_response_us
    return {
        "frame_speedup.C-RR": result.frame_speedup(vs="C-RR"),
        "frame_speedup.BC-C": result.frame_speedup(vs="BC-C"),
        **{
            f"response_us.{name}": cell.mean_response_us
            for name, cell in result.cells.items()
        },
    }
