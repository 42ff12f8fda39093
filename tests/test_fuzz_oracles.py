"""Generator determinism, oracle verdicts, and coverage tokens.

These tests pin the fuzzer's core contracts: ``generate_scenario`` is
a pure function of ``(seed, index)``, the oracle battery is silent on
healthy runs and bit-stable across repeats, fault-free scenarios hold
the differential identities, and coverage tokenization is sorted and
deterministic.
"""

import pytest

from repro.fuzz.coverage import coverage_tokens, log2_bucket
from repro.fuzz.generate import generate_scenario
from repro.fuzz.oracles import (
    Failure,
    FuzzOutcome,
    execute_scenario,
    run_oracles,
)
from repro.fuzz.scenario import (
    EngineSection,
    FuzzError,
    Scenario,
    ScenarioEvent,
    SocSection,
)

SMALL = Scenario(
    kind="engine",
    seed=5,
    max_cycles=8_000,
    engine=EngineSection(dim=3, max_by_tile=(8,) * 9, pool=48),
)


class TestGenerator:
    def test_same_inputs_same_scenario(self):
        for i in range(6):
            assert (
                generate_scenario(9, i).scenario_hash
                == generate_scenario(9, i).scenario_hash
            )

    def test_different_indices_differ(self):
        hashes = {generate_scenario(9, i).scenario_hash for i in range(8)}
        assert len(hashes) == 8

    def test_kind_pinning(self):
        assert generate_scenario(1, 0, kind="engine").kind == "engine"
        assert generate_scenario(1, 0, kind="soc").kind == "soc"
        with pytest.raises(ValueError, match="unknown scenario kind"):
            generate_scenario(1, 0, kind="quantum")

    def test_generated_scenarios_validate_and_round_trip(self):
        for i in range(10):
            s = generate_scenario(3, i)
            assert Scenario.from_json(s.to_json()) == s


class TestExecution:
    def test_execution_is_bit_stable(self):
        a = execute_scenario(SMALL)
        b = execute_scenario(SMALL)
        assert a.fingerprint == b.fingerprint
        assert a.counters == b.counters

    def test_events_change_the_fingerprint(self):
        stepped = SMALL.with_events(
            (ScenarioEvent(cycle=1_000, kind="set_max", tile=4, value=32),)
        )
        assert (
            execute_scenario(stepped).fingerprint
            != execute_scenario(SMALL).fingerprint
        )

    def test_healthy_run_passes_all_oracles(self):
        outcome = run_oracles(SMALL)
        assert outcome.ok
        assert outcome.failures == ()

    def test_differential_identities_hold_on_null_plan(self):
        # observed, unobserved, and uninjected runs all agree
        observed = execute_scenario(SMALL, observed=True, inject=True)
        silent = execute_scenario(SMALL, observed=False, inject=True)
        bare = execute_scenario(SMALL, observed=False, inject=False)
        assert observed.fingerprint == silent.fingerprint == bare.fingerprint

    def test_hang_detected_as_failure(self):
        impossible = Scenario(
            kind="soc",
            seed=2,
            max_cycles=5_000,
            soc=SocSection(
                preset="3x3",
                budget_mw=120,
                tasks=(("a", "FFT", 10_000_000, (), None),),
            ),
        )
        outcome = run_oracles(impossible)
        assert "hang:workload" in outcome.failure_keys

    def test_soc_run_produces_pm_coverage(self):
        s = generate_scenario(11, 2)  # known soc-kind from the smoke seed
        assert s.kind == "soc"
        outcome = run_oracles(s)
        assert any(t.startswith("ctr:") for t in outcome.coverage)
        assert f"kind:soc:{s.variant}" in outcome.coverage


class TestFailureRecords:
    def test_round_trip(self):
        f = Failure(oracle="monitor", key="monitor:starvation", detail="x")
        assert Failure.from_dict(f.to_dict()) == f

    def test_missing_field_rejected(self):
        with pytest.raises(FuzzError, match="malformed failure"):
            Failure.from_dict({"oracle": "monitor"})


class TestCoverage:
    def test_log2_buckets(self):
        assert [log2_bucket(n) for n in (0, 1, 2, 3, 4, 8, 1000)] == [
            0, 1, 2, 2, 3, 4, 10,
        ]

    def test_tokens_sorted_and_deterministic(self):
        execution = execute_scenario(SMALL)
        tokens = coverage_tokens(SMALL, execution)
        assert tokens == tuple(sorted(tokens))
        assert tokens == coverage_tokens(SMALL, execution)
        assert f"kind:engine:{SMALL.variant}" in tokens

    def test_outcome_failure_keys(self):
        outcome = FuzzOutcome(
            fingerprint="f",
            failures=(
                Failure(oracle="hang", key="hang:workload", detail=""),
            ),
            coverage=(),
            counters={},
        )
        assert not outcome.ok
        assert outcome.failure_keys == ("hang:workload",)
