"""Cheap structural coverage signals from the ObsSink path.

Classic coverage-guided fuzzers instrument branches; this fuzzer
instruments *behavior*.  The simulator already publishes a rich stream
of counters and alerts through the observability sink, so one observed
run yields a set of coarse string tokens for free:

* ``alert:<monitor>:<severity>`` — which detectors fired, at what
  severity (a starvation warn is a different behavior than none).
* ``ctr:<name>:<log2-bucket>`` — the kernel phase mix: which engine /
  executor counters incremented, bucketed by magnitude so "3 timeouts"
  and "300 timeouts" are distinct behaviors while "3" and "4" are not.
* ``kind:<engine|soc>:<variant>`` and ``events:<kinds>`` — scenario
  shape, so the corpus keeps at least one exemplar of each shape.

A scenario is *interesting* (kept in the corpus) iff it produces a
token the corpus has never seen.  Tokens are plain sorted strings so
manifests stay diffable and byte-stable across runs and Pythons.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.fuzz.oracles import Execution
    from repro.fuzz.scenario import Scenario

__all__ = ["coverage_tokens", "log2_bucket"]


def log2_bucket(n: int) -> int:
    """Magnitude bucket: 0, 1, 2, 4, 8.. collapse to 0, 1, 2, 3, 4..."""
    if n <= 0:
        return 0
    return n.bit_length()


def coverage_tokens(
    scenario: "Scenario", execution: "Execution"
) -> Tuple[str, ...]:
    """The sorted, deduplicated token set for one observed run."""
    tokens: Set[str] = set()
    tokens.add(f"kind:{scenario.kind}:{scenario.variant}")
    event_kinds = ",".join(sorted({ev.kind for ev in scenario.events}))
    tokens.add(f"events:{event_kinds or 'none'}")
    if not scenario.fault_plan.is_null:
        tokens.add("faults:active")
    for alert in execution.alerts:
        tokens.add(f"alert:{alert.monitor}:{alert.severity}")
    for name in sorted(execution.counters):
        tokens.add(f"ctr:{name}:{log2_bucket(execution.counters[name])}")
    for failure in execution.failures:
        tokens.add(f"fail:{failure.key}")
    return tuple(sorted(tokens))
