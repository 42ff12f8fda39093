"""A deterministic ceiling on the interpreter work per delivered packet.

Wall time is noisy on shared hosts; the number of Python function calls
a seeded trial makes is not.  Each case runs one fault-free trial with
no obs sink and no sanitizer, counts the profiler's ``call`` events
(Python frames only; C functions report as ``c_call`` and are not
counted) while the simulation runs, and divides by the packets the
fabric delivered.  A change that adds a Python frame to the exchange or
packet path raises the ratio by about one and trips the ceiling.

The ceilings sit about 17% above the counts measured on CPython 3.11
(12.3, 17.2 and 17.1 calls per packet).  CPython 3.12 inlines
comprehensions, so it counts no more calls than 3.11 does.
"""

import dataclasses
import sys

import pytest

from repro.core.config import (
    BlitzCoinConfig,
    plain_four_way,
    plain_one_way,
    preferred_embodiment,
)
from repro.core.runner import homogeneous_scenario, random_initial_allocation
from repro.sim.rng import rng_for
from tests.conftest import build_engine_rig

SEED = 3000
THRESHOLD = 1.5

CASES = {
    "plain-4way-d8": (8, plain_four_way, 14.4),
    "plain-1way-d8": (8, plain_one_way, 20.1),
    "preferred-d10": (10, preferred_embodiment, 20.0),
}


def seeded_rig(d: int, config: BlitzCoinConfig):
    """An engine rig started on the seeded random initial allocation."""
    rng = rng_for(SEED, d)
    scenario = homogeneous_scenario(d)
    return build_engine_rig(
        d,
        config=dataclasses.replace(config, convergence_threshold=THRESHOLD),
        max_per_tile=scenario.max_by_tile,
        initial=random_initial_allocation(scenario, rng),
        rng=rng,
        start=True,
    )


def calls_per_packet(d: int, config: BlitzCoinConfig) -> float:
    """Python calls per delivered packet over one seeded trial's run."""
    rig = seeded_rig(d, config)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        converged_at = rig.engine.run_until_converged(2_000_000)
    finally:
        sys.setprofile(None)
    assert converged_at is not None
    return calls / rig.noc.stats.delivered


@pytest.mark.parametrize("name", sorted(CASES))
def test_calls_per_delivered_packet(name, monkeypatch):
    monkeypatch.delenv("BLITZCOIN_SANITIZE", raising=False)
    d, make_config, ceiling = CASES[name]
    ratio = calls_per_packet(d, make_config())
    assert ratio <= ceiling, (
        f"{name}: {ratio:.2f} Python calls per delivered packet, "
        f"ceiling {ceiling}"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_updates_apply_no_zero_delta(name, monkeypatch):
    """NACKs and zero-delta replies reach ``_apply_delta`` not at all."""
    monkeypatch.delenv("BLITZCOIN_SANITIZE", raising=False)
    d, make_config, _ = CASES[name]
    rig = seeded_rig(d, make_config())
    apply_delta = rig.engine._apply_delta
    zero_applies = 0

    def spy(tid, delta):
        nonlocal zero_applies
        if delta == 0 and sys._getframe(1).f_code.co_name == "_on_update":
            zero_applies += 1
        apply_delta(tid, delta)

    monkeypatch.setattr(rig.engine, "_apply_delta", spy)
    assert rig.engine.run_until_converged(2_000_000) is not None
    assert zero_applies == 0
