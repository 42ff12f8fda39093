"""Tests for the declarative fault-plan model (repro.faults.plan)."""

import json

import pytest

from repro.faults import (
    CoinLossEvent,
    FaultPlan,
    FaultPlanError,
    LinkFaultRates,
    TileFaultEvent,
    load_fault_plan,
)


class TestLinkFaultRates:
    def test_defaults_are_null(self):
        assert LinkFaultRates().is_null

    @pytest.mark.parametrize("field", ["drop", "duplicate", "corrupt", "delay"])
    def test_rates_bounded(self, field):
        with pytest.raises(FaultPlanError):
            LinkFaultRates(**{field: 1.01})
        with pytest.raises(FaultPlanError):
            LinkFaultRates(**{field: -0.01})

    def test_exclusive_outcomes_cannot_exceed_one(self):
        with pytest.raises(FaultPlanError):
            LinkFaultRates(drop=0.5, duplicate=0.3, corrupt=0.3)

    def test_delay_is_independent_of_the_exclusive_budget(self):
        LinkFaultRates(drop=0.5, duplicate=0.5, delay=1.0)  # fine

    def test_max_delay_must_be_positive(self):
        with pytest.raises(FaultPlanError):
            LinkFaultRates(max_delay_cycles=0)


class TestEvents:
    def test_unknown_action_rejected(self):
        with pytest.raises(FaultPlanError):
            TileFaultEvent(cycle=0, tile=0, action="maim")

    def test_negative_cycle_rejected(self):
        with pytest.raises(FaultPlanError):
            TileFaultEvent(cycle=-1, tile=0, action="kill")

    def test_coin_loss_needs_at_least_one_coin(self):
        with pytest.raises(FaultPlanError):
            CoinLossEvent(cycle=0, tile=0, coins=0)


class TestFaultPlan:
    def test_default_plan_is_null(self):
        plan = FaultPlan()
        assert plan.is_null
        assert not plan.has_packet_faults

    def test_uniform_constructor(self):
        plan = FaultPlan.uniform(drop=0.1, delay=0.2, seed=9)
        assert plan.seed == 9
        assert plan.link.drop == 0.1
        assert plan.has_packet_faults
        assert not plan.is_null

    def test_duplicate_override_rejected(self):
        r = LinkFaultRates(drop=0.1)
        with pytest.raises(FaultPlanError):
            FaultPlan(link_overrides=((0, 1, r), (0, 1, r)))

    def test_with_seed(self):
        plan = FaultPlan.uniform(drop=0.1, seed=1)
        assert plan.with_seed(5).seed == 5
        assert plan.with_seed(5).link == plan.link

    def test_tile_events_alone_make_plan_non_null(self):
        plan = FaultPlan(
            tile_events=(TileFaultEvent(cycle=10, tile=0, action="kill"),)
        )
        assert not plan.is_null
        assert not plan.has_packet_faults


class TestSerialization:
    def full_plan(self):
        return FaultPlan(
            seed=42,
            link=LinkFaultRates(drop=0.05, delay=0.1, max_delay_cycles=8),
            link_overrides=((0, 1, LinkFaultRates(corrupt=0.2)),),
            tile_events=(
                TileFaultEvent(cycle=100, tile=4, action="kill"),
                TileFaultEvent(cycle=500, tile=4, action="revive"),
            ),
            coin_loss_events=(CoinLossEvent(cycle=50, tile=2, coins=3),),
        )

    def test_json_round_trip(self):
        plan = self.full_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_save_and_load(self, tmp_path):
        plan = self.full_plan()
        path = tmp_path / "plan.json"
        plan.save(path)
        assert load_fault_plan(path) == plan

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(FaultPlanError, match="gremlins"):
            FaultPlan.from_dict({"gremlins": 1})

    def test_bool_not_accepted_as_int(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"seed": True})

    def test_malformed_json_raises_plan_error(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json("{nope")

    def test_unreadable_file_raises_plan_error(self, tmp_path):
        with pytest.raises(FaultPlanError):
            load_fault_plan(tmp_path / "missing.json")

    def test_dict_form_is_plain_json(self):
        d = self.full_plan().to_dict()
        json.dumps(d)  # serializable as-is
        assert d["seed"] == 42
