"""Experiment-campaign orchestration: parallel, cached, resumable sweeps.

A *campaign* is a declarative sweep over trial parameters — a frozen,
JSON-serializable :class:`~repro.campaign.spec.CampaignSpec` describing
a grid of points (``axes``), a trial count, and a deterministic
per-trial seed rule.  The executor fans the resulting *units* (one
seeded trial each) out over a ``ProcessPoolExecutor``; because every
unit is a self-contained seeded simulation, parallel results are
bit-identical to the serial run — asserted by the executor's built-in
verification pass, not assumed.

Results live in a content-addressed on-disk
:class:`~repro.campaign.store.CampaignStore` (key = spec hash + unit
hash) with atomic, crash-safe writes, so re-running an identical spec
is a transparent cache hit and an interrupted campaign resumes by
executing only the missing units.  See ``docs/CAMPAIGNS.md``.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "errors": ["CampaignError", "SpecError", "StoreError"],
        "executor": ["CampaignRun", "run_campaign"],
        "spec": [
            "CampaignSpec",
            "CampaignUnit",
            "canonical_json",
            "decode_config",
            "encode_config",
            "load_campaign_spec",
        ],
        "store": ["CampaignStore"],
    },
)
