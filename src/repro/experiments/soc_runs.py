"""Shared helper for the SoC-level experiments (Figs. 16-20)."""

from __future__ import annotations

from typing import Optional

from repro.power.allocation import AllocationStrategy
from repro.soc.executor import SocRunResult, WorkloadExecutor
from repro.soc.pm import PMKind, build_pm
from repro.soc.soc import Soc
from repro.soc.tile import SocConfig
from repro.workloads.dag import TaskGraph


def run_soc_workload(
    config: SocConfig,
    graph: TaskGraph,
    pm_kind: PMKind,
    budget_mw: float,
    *,
    strategy: AllocationStrategy = AllocationStrategy.RELATIVE_PROPORTIONAL,
    max_cycles: int = 50_000_000,
    pm_out: Optional[list] = None,
) -> SocRunResult:
    """Build a fresh SoC, attach the PM, run the graph, return the result.

    ``pm_out``, when given, receives the PM adapter (for experiments that
    inspect coin snapshots or response logs after the run).
    """
    soc = Soc(config)
    pm = build_pm(pm_kind, soc, budget_mw, strategy=strategy)
    if pm_out is not None:
        pm_out.append(pm)
    executor = WorkloadExecutor(soc, graph, pm)
    return executor.run(max_cycles=max_cycles)
