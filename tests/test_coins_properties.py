"""Property tests for the exact integer exchange arithmetic (Fig. 2)
and the fault layer's conservation contract.

Hypothesis drives adversarial ``(has, max)`` inputs — including
``max == 0`` tiles, transiently negative ``has`` (the hardware's
sign-bit widening, Section IV-A), and counts far beyond float53
precision — and asserts the two invariants the whole reproduction
rests on: deltas always sum to zero, and every coin count stays an
exact integer.

The fault-plan properties extend that contract under injected faults:
for *any* FaultPlan, coins-on-tiles + coins-in-flight + lost-pending
must equal the minted pool at every simulator event (enforced by the
runtime sanitizer), and a plan that injects nothing must be
bit-identical to running with no plan at all.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coins import (
    ExchangeResult,
    TileCoins,
    group_deltas,
    pairwise_exchange,
)
from repro.core.config import preferred_embodiment
from repro.core.runner import run_convergence_trial
from repro.faults.plan import FaultPlan, LinkFaultRates
from tests.strategies import CAP, GROUP, HAS, MAX, fault_plans


def tile(has: int, max_: int) -> TileCoins:
    return TileCoins(has=has, max=max_)


class TestPairwiseExchange:
    @given(h_i=HAS, m_i=MAX, h_j=HAS, m_j=MAX, cap_i=CAP, cap_j=CAP,
           shake=st.booleans())
    @settings(max_examples=300)
    def test_deltas_sum_to_zero_and_stay_integral(
        self, h_i, m_i, h_j, m_j, cap_i, cap_j, shake
    ):
        result = pairwise_exchange(
            tile(h_i, m_i), tile(h_j, m_j),
            cap_i=cap_i, cap_j=cap_j, shake=shake,
        )
        assert isinstance(result, ExchangeResult)
        assert sum(result.deltas) == 0
        for d in result.deltas:
            assert type(d) is int

    @given(h_i=HAS, m_i=MAX, h_j=HAS, m_j=MAX)
    @settings(max_examples=200)
    def test_total_is_conserved_after_applying_deltas(
        self, h_i, m_i, h_j, m_j
    ):
        result = pairwise_exchange(tile(h_i, m_i), tile(h_j, m_j))
        d_i, d_j = result.deltas
        assert (h_i + d_i) + (h_j + d_j) == h_i + h_j

    @given(h_i=HAS, m_i=MAX, h_j=HAS, m_j=MAX)
    @settings(max_examples=200)
    def test_uncapped_exchange_is_a_fixed_point(self, h_i, m_i, h_j, m_j):
        """Re-exchanging a freshly balanced pair moves nothing.

        This is the canonical-rounding property the dynamic-timing
        back-off depends on: without it one coin ping-pongs between
        converged neighbors forever.
        """
        first = pairwise_exchange(tile(h_i, m_i), tile(h_j, m_j))
        d_i, d_j = first.deltas
        second = pairwise_exchange(
            tile(h_i + d_i, m_i), tile(h_j + d_j, m_j)
        )
        assert second.deltas == (0, 0)

    @given(h_i=HAS, h_j=HAS, m_j=MAX)
    @settings(max_examples=100)
    def test_inactive_initiator_relinquishes_everything(
        self, h_i, h_j, m_j
    ):
        """A max == 0 tile facing an active partner keeps zero coins."""
        if m_j == 0:
            m_j = 1
        result = pairwise_exchange(tile(h_i, 0), tile(h_j, m_j))
        d_i, _ = result.deltas
        assert h_i + d_i == 0

    @given(h_i=HAS, h_j=HAS)
    @settings(max_examples=50)
    def test_both_inactive_is_a_no_op(self, h_i, h_j):
        result = pairwise_exchange(tile(h_i, 0), tile(h_j, 0))
        assert result.deltas == (0, 0)


class TestGroupExchange:
    @given(group=GROUP)
    @settings(max_examples=300)
    def test_deltas_sum_to_zero_and_stay_integral(self, group):
        has, maxes = zip(*group)
        deltas = group_deltas(has, maxes)
        assert sum(deltas) == 0
        assert len(deltas) == len(group)
        for d in deltas:
            assert type(d) is int

    @given(group=GROUP, caps=st.lists(CAP, min_size=6, max_size=6))
    @settings(max_examples=200)
    def test_capped_deltas_still_sum_to_zero(self, group, caps):
        has, maxes = zip(*group)
        deltas = group_deltas(has, maxes, caps[: len(group)])
        assert sum(deltas) == 0
        for d in deltas:
            assert type(d) is int

    @given(group=GROUP)
    @settings(max_examples=100)
    def test_all_inactive_is_a_no_op(self, group):
        has = [h for h, _ in group]
        assert not any(group_deltas(has, [0] * len(has)))


# --- fault-plan properties ---------------------------------------------
# Plan strategies live in tests.strategies (shared with the fuzzer).


def _fault_config(plan):
    return dataclasses.replace(
        preferred_embodiment(),
        exchange_timeout_cycles=256,
        reconcile_delay_cycles=32,
        sanitize=True,  # conservation checked at *every* sim event
        fault_plan=plan,
    )


class TestFaultPlanProperties:
    @given(plan=fault_plans(), seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_coins_conserved_at_every_event_under_any_plan(
        self, plan, seed
    ):
        """on-tiles + in-flight + lost-pending == minted pool, always.

        The sanitizer raises at the first event that violates the
        ledger, so simply completing the bounded run *is* the
        assertion; the final explicit check guards the end state.
        """
        r = run_convergence_trial(
            3, _fault_config(plan), seed=seed, max_cycles=20_000
        )
        # Whatever was re-minted was first booked as lost.
        if plan.is_null:
            assert r.coins_lost == 0 and r.coins_reconciled == 0
        assert r.packets >= 0

    @given(
        seed=st.integers(0, 2**32),
        trial_seed=st.integers(0, 10**6),
        max_delay=st.integers(1, 64),
    )
    @settings(max_examples=15, deadline=None)
    def test_null_plan_is_bit_identical_to_no_plan(
        self, seed, trial_seed, max_delay
    ):
        """A plan with nothing to inject must not perturb the run —
        not by one cycle, packet, or coin — regardless of its seed or
        delay bound (the zero-overhead fast-flag contract)."""
        null_plan = FaultPlan(
            seed=seed,
            link=LinkFaultRates(max_delay_cycles=max_delay),
        )
        assert null_plan.is_null
        base = run_convergence_trial(
            3, preferred_embodiment(), seed=trial_seed, max_cycles=50_000
        )
        faulted = run_convergence_trial(
            3,
            dataclasses.replace(
                preferred_embodiment(), fault_plan=null_plan
            ),
            seed=trial_seed,
            max_cycles=50_000,
        )
        assert faulted == base

    @given(plan=fault_plans())
    @settings(max_examples=100)
    def test_plan_json_round_trip(self, plan):
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert FaultPlan.from_dict(plan.to_dict()) == plan
