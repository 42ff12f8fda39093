"""Section IV-A ablation: droop resilience of UVFR vs fixed-frequency.

Quantifies the paper's motivation for supply-tracking clocks [58]-[60]:
under the same supply transients, UVFR pays a transient slowdown only,
while a conventional fixed-frequency design either violates timing or
pays the guard-band's power overhead permanently.
"""

from repro.dvfs.droop import DroopEvent, DroopSimulator
from repro.perf import register
from repro.power.characterization import get_curve

DEPTHS_V = (0.02, 0.05, 0.08, 0.12)


def run_sweep():
    out = {}
    for name in ("FFT", "NVDLA", "GEMM"):
        sim = DroopSimulator(get_curve(name))
        f_mid = 0.75 * get_curve(name).spec.f_max_hz
        out[name] = {
            "tradeoff": sim.guardband_tradeoff(f_mid, DEPTHS_V),
            "unguarded": [
                sim.conventional_response(
                    f_mid, [DroopEvent(0, d, 200)], guardband_v=0.03
                ).timing_violations
                for d in DEPTHS_V
            ],
            "uvfr": [
                sim.uvfr_response(f_mid, [DroopEvent(0, d, 200)])
                for d in DEPTHS_V
            ],
        }
    return out


@register("claim.droop_resilience", suites=("figures",))
def droop_resilience():
    """Sec. IV-A: UVFR rides any droop; a guard-banded clock pays or fails."""
    metrics = {}
    for name, r in run_sweep().items():
        # UVFR never violates timing, at any droop depth.
        for res in r["uvfr"]:
            assert res.survives, name
        # A modest 30 mV guard-band fails once droops exceed it.
        assert r["unguarded"][-1] > 0, name
        # Surviving the worst droop statically costs permanent power.
        worst_overhead = r["tradeoff"][-1][2]
        assert worst_overhead > 0.08, name
        # UVFR's cost is bounded and transient.
        assert r["tradeoff"][-1][1] < 0.9, name
        metrics[f"{name}.unguarded_violations"] = r["unguarded"][-1]
        metrics[f"{name}.guardband_overhead"] = worst_overhead
        metrics[f"{name}.uvfr_slowdown"] = r["tradeoff"][-1][1]
    return metrics
