"""Coverage-guided scenario fuzzing for the BlitzCoin reproduction.

The fuzzer composes random-but-valid scenario bundles (mesh/SoC
configurations, workload DAGs, fault plans, timed thermal and budget
events), runs them through the real simulator with three oracle
families armed — health-monitor alerts, the runtime sanitizer's
conservation invariants, and cross-config differential identities —
and keeps a content-addressed corpus of behaviorally novel seeds.
Failures shrink to minimal frozen repro bundles that replay
bit-identically (``blitzcoin-repro fuzz replay``).

See docs/FUZZING.md for the oracle table, corpus layout, shrink
semantics, and the replay contract.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "campaign": ["CampaignSummary", "fuzz_campaign", "replay_corpus"],
        "corpus": ["Corpus", "ReproBundle", "load_bundle"],
        "coverage": ["coverage_tokens", "log2_bucket"],
        "generate": ["generate_scenario"],
        "oracles": ["Failure", "FuzzOutcome", "execute_scenario", "run_oracles"],
        "scenario": [
            "EngineSection",
            "FuzzError",
            "Scenario",
            "ScenarioEvent",
            "SocSection",
        ],
        "shrink": ["ShrinkResult", "shrink_scenario"],
    },
)
