"""repro.faults — deterministic fault injection and resilience testing.

The paper's robustness claim (no single point of failure, Section II-B
/ Fig. 1) is only meaningful against a faulty fabric.  This package
injects seed-reproducible packet faults (drop / duplicate / corrupt /
delay), tile faults (kill / hang / revive) and coin-loss events into
the existing simulator stack, behind a zero-overhead fast flag
(:mod:`repro.faults.runtime`) so fault-free runs stay bit-identical.

Typical use::

    from repro.faults import FaultPlan, injecting

    plan = FaultPlan.uniform(drop=0.05, seed=1)
    with injecting(plan) as inj:
        result = run_convergence_trial(6, config, seed=0)
    print(inj.summary())

or declaratively, through the config::

    config = dataclasses.replace(config, fault_plan=plan)
    result = run_convergence_trial(6, config, seed=0)
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "injector": ["FaultInjector"],
        "plan": [
            "CoinLossEvent",
            "FaultPlan",
            "FaultPlanError",
            "LinkFaultRates",
            "TileFaultEvent",
            "load_fault_plan",
        ],
        "runtime": ["injecting", "maybe_injecting"],
    },
)
