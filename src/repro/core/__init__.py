"""The BlitzCoin coin-exchange algorithm (Section III).

Public surface:

* :class:`BlitzCoinConfig` — every knob of the algorithm (exchange mode,
  refresh interval, dynamic timing, wrap-around, random pairing, thermal
  caps) in one dataclass.
* :func:`pair_deltas` / :func:`group_deltas` — the exact integer
  coin-update arithmetic of the 1-way and 4-way techniques (Fig. 2);
  :func:`pairwise_exchange` wraps the pair kernel for :class:`TileCoins`.
* :class:`CoinExchangeEngine` — the decentralized engine: one FSM per
  tile running on the shared event simulator, exchanging packets over a
  :class:`~repro.noc.NocFabric`.
* :class:`ErrorTracker` — incremental global-error metric (Section III-C
  definition) with convergence detection.
* :func:`run_convergence_trial` — one Monte-Carlo trial from a random
  initial allocation, as used in Figs. 3, 4, 6, 7, 8.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "analysis": ["ExchangeCase", "classify_exchange", "is_local_minimum"],
        "coins": ["CoinStateError", "ExchangeResult", "TileCoins", "pairwise_exchange"],
        "config": ["BlitzCoinConfig", "ConfigError", "ExchangeMode"],
        "engine": ["CoinExchangeEngine", "EngineError"],
        "metrics": ["ErrorTracker", "global_error", "worst_tile_error"],
        "runner": [
            "ScenarioSpec",
            "TrialResult",
            "heterogeneous_scenario",
            "run_convergence_trial",
        ],
    },
)
