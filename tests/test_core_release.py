"""A finished trial is freed by reference counting alone.

The runner releases every trial it builds: it drains the simulator,
detaches the engine from the fabric and drops the tiles' timers, so no
reference cycle is left for the cycle collector.  Each case disables
the collector, runs one trial and checks that the engine, the
simulator and the fabric the trial built are gone as soon as the
runner returns.  Sanitized runs are not covered: the sanitizer's
instance wrappers are cycles of their own.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.core import runner
from repro.core.config import plain_four_way, plain_one_way
from repro.faults.plan import FaultPlan, LinkFaultRates, TileFaultEvent

LOSSY = FaultPlan(
    seed=5,
    link=LinkFaultRates(drop=0.05),
    tile_events=(TileFaultEvent(cycle=200, tile=9, action="kill"),),
)

CONFIGS = {
    "1way": plain_one_way(),
    "4way": plain_four_way(),
    "1way-lossy": dataclasses.replace(plain_one_way(), fault_plan=LOSSY),
    "4way-lossy": dataclasses.replace(plain_four_way(), fault_plan=LOSSY),
}


@pytest.fixture
def built(monkeypatch):
    """Weak references to every engine, simulator and fabric the runner
    builds, taken with the cycle collector off."""
    monkeypatch.delenv("BLITZCOIN_SANITIZE", raising=False)
    refs = []

    def recording(cls):
        def build(*args, **kwargs):
            obj = cls(*args, **kwargs)
            refs.append(weakref.ref(obj))
            return obj

        return build

    for name in ("CoinExchangeEngine", "Simulator", "BehavioralNoc"):
        monkeypatch.setattr(runner, name, recording(getattr(runner, name)))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield refs
    finally:
        if was_enabled:
            gc.enable()


def alive(refs):
    return [ref() for ref in refs if ref() is not None]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_convergence_trial_is_freed(name, built):
    result = runner.run_convergence_trial(
        4, CONFIGS[name], seed=3, threshold=1.5, max_cycles=20_000
    )
    assert len(built) == 3
    assert alive(built) == []
    assert result.packets > 0 and result.exchanges > 0
    if CONFIGS[name].fault_plan is not None:
        assert result.timeouts > 0


def test_settled_trial_is_freed(built):
    result = runner.settle_to_residual(
        4, CONFIGS["1way"], seed=3, settle_cycles=20_000
    )
    assert len(built) == 3
    assert alive(built) == []
    assert result.exchanges > 0
