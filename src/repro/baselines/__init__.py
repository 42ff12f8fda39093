"""Baseline power-management schemes the paper compares against.

* :mod:`~repro.baselines.tokensmart` — TokenSmart (TS) [43]: decentralized
  but *sequential* ring-based token passing with greedy/fair modes.
* :mod:`~repro.baselines.centralized` — the centralized controllers:
  C-RR (round-robin max/min V,F) and BC-C (BlitzCoin's allocation computed
  centrally), both with O(N) poll/update loops.
* :mod:`~repro.baselines.pricetheory` — the hierarchical price-theory
  manager (PT) [81], reproduced as a response-time scaling model.

The static allocation of Fig. 19 runs on the SoC as
:class:`repro.soc.pm.StaticPM`.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "centralized": ["CentralizedPolicy", "CentralizedScheme", "ControllerTiming"],
        "pricetheory": ["PriceTheoryModel"],
        "tokensmart": [
            "TokenSmartConfig",
            "TokenSmartResult",
            "TokenSmartSim",
            "run_tokensmart_trial",
        ],
    },
)
