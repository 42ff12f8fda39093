"""The fuzz campaign loop: generate, oracle, keep, shrink, record.

One campaign is a pure function of ``(seed, budget)``: scenario ``i``
comes from :func:`repro.fuzz.generate.generate_scenario`, runs through
the oracle battery, lands in the corpus when it covers new behavior,
and — on an oracle violation — shrinks to a minimal repro bundle before
being filed under ``failures/``.  Two runs of the same campaign against
an empty corpus produce byte-identical corpus trees (the acceptance
bar ``fuzz run`` is tested against).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.fuzz.corpus import Corpus, ReproBundle
from repro.fuzz.generate import generate_scenario
from repro.fuzz.oracles import run_oracles
from repro.fuzz.shrink import shrink_scenario

__all__ = ["CampaignSummary", "fuzz_campaign", "replay_corpus"]


@dataclass
class CampaignSummary:
    """What one fuzz campaign did."""

    seed: int
    budget: int
    executed: int = 0
    kept: int = 0
    failures: int = 0
    tokens: int = 0
    failure_paths: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "executed": self.executed,
            "kept": self.kept,
            "failures": self.failures,
            "tokens": self.tokens,
            "failure_paths": list(self.failure_paths),
        }


def fuzz_campaign(
    seed: int,
    budget: int,
    corpus_root: Union[str, Path],
    *,
    kind: Optional[str] = None,
    shrink: bool = True,
    log: Optional[Callable[[str], None]] = None,
) -> CampaignSummary:
    """Run ``budget`` generated scenarios against the oracle battery.

    ``kind`` pins every scenario to "engine" or "soc"; ``shrink=False``
    files failures unshrunk (faster triage runs).
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    corpus = Corpus(corpus_root)
    summary = CampaignSummary(seed=seed, budget=budget)
    say = log if log is not None else (lambda _msg: None)
    for index in range(budget):
        scenario = generate_scenario(seed, index, kind=kind)
        outcome = run_oracles(scenario)
        summary.executed += 1
        fresh = corpus.add_entry(scenario, outcome)
        if fresh is not None:
            summary.kept += 1
            say(
                f"[{index}] kept {scenario.scenario_hash[:12]} "
                f"(+{len(fresh)} tokens): {scenario.describe()}"
            )
        if outcome.failures:
            summary.failures += 1
            failure = outcome.failures[0]
            say(f"[{index}] FAILURE {failure.key}: {failure.detail}")
            final_scenario, final_failure, fingerprint = (
                scenario,
                failure,
                outcome.fingerprint,
            )
            if shrink:
                result = shrink_scenario(
                    scenario, failure.key, on_progress=say
                )
                final_scenario = result.scenario
                final_failure = result.failure
                fingerprint = result.fingerprint
            path = corpus.add_failure(
                ReproBundle(final_scenario, final_failure, fingerprint)
            )
            summary.failure_paths.append(str(path))
    summary.tokens = len(corpus.seen_tokens)
    return summary


def replay_corpus(
    corpus_root: Union[str, Path],
    *,
    log: Optional[Callable[[str], None]] = None,
) -> Tuple[int, List[str]]:
    """Re-run every corpus entry; returns (count, oracle-failure keys).

    This is the CI regression mode: the committed corpus must stay
    green — any failure key returned here is a regression (or a known
    failure that should live under ``failures/``, not ``entries/``).
    """
    corpus = Corpus(corpus_root)
    say = log if log is not None else (lambda _msg: None)
    broken: List[str] = []
    count = 0
    for digest in sorted(corpus.entries):
        scenario = corpus.load_scenario(digest)
        outcome = run_oracles(scenario)
        count += 1
        expected = corpus.entries[digest].get("fingerprint")
        if outcome.failures:
            keys = ",".join(outcome.failure_keys)
            broken.append(f"{digest[:12]}: {keys}")
            say(f"{digest[:12]} FAILED: {keys}")
        elif expected is not None and outcome.fingerprint != expected:
            broken.append(
                f"{digest[:12]}: fingerprint drift "
                f"{expected} -> {outcome.fingerprint}"
            )
            say(f"{digest[:12]} fingerprint drift")
        else:
            say(f"{digest[:12]} ok")
    return count, broken
