"""Production-shaped load: the traffic no figure in the paper covers.

The paper evaluates BlitzCoin on hand-written workloads (WL-Par /
WL-Dep, Fig. 14) whose activity statistics are stationary.  Deployed
accelerator-rich SoCs see none of that: inference-serving traffic is
*diurnal* (a daily sinusoid with a deep trough) and *multi-tenant*
(many independent request streams sharing one die).

This module synthesizes that shape as plain data — an
:class:`ArrivalTrace` of timestamped requests — so the scenario fuzzer
(:mod:`repro.fuzz`) can replay production-shaped days against the
protocol.  Everything is seeded
through :func:`repro.sim.rng.rng_for` (blitzlint rule D2) and fully
deterministic: the same arguments always produce byte-identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.rng import rng_for
from repro.workloads.dag import Task, TaskGraph

__all__ = [
    "Arrival",
    "ArrivalTrace",
    "ProductionError",
    "diurnal_arrival_trace",
]

#: Default accelerator-class mix of an inference-serving tenant.
DEFAULT_CLASSES: Tuple[str, ...] = ("FFT", "Viterbi", "NVDLA")


class ProductionError(ValueError):
    """Raised for malformed production-trace parameters."""


@dataclass(frozen=True)
class Arrival:
    """One request: a tenant asks for one accelerator invocation."""

    cycle: int
    tenant: int
    acc_class: str
    work_cycles: int

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ProductionError(f"arrival cycle must be >= 0, got {self.cycle}")
        if self.tenant < 0:
            raise ProductionError(f"tenant must be >= 0, got {self.tenant}")
        if not self.acc_class:
            raise ProductionError("arrival needs a non-empty acc_class")
        if self.work_cycles <= 0:
            raise ProductionError(
                f"work_cycles must be positive, got {self.work_cycles}"
            )


@dataclass(frozen=True)
class ArrivalTrace:
    """A multi-tenant request stream over a fixed horizon.

    Arrivals are kept sorted by ``(cycle, tenant)`` so two traces with
    the same content are equal and serialize byte-identically.
    """

    arrivals: Tuple[Arrival, ...]
    horizon_cycles: int
    n_tenants: int

    def __post_init__(self) -> None:
        if self.horizon_cycles <= 0:
            raise ProductionError(
                f"horizon must be positive, got {self.horizon_cycles}"
            )
        if self.n_tenants < 1:
            raise ProductionError(
                f"need at least one tenant, got {self.n_tenants}"
            )
        ordered = tuple(
            sorted(self.arrivals, key=lambda a: (a.cycle, a.tenant))
        )
        object.__setattr__(self, "arrivals", ordered)
        for a in ordered:
            if a.cycle >= self.horizon_cycles:
                raise ProductionError(
                    f"arrival at {a.cycle} beyond horizon {self.horizon_cycles}"
                )
            if a.tenant >= self.n_tenants:
                raise ProductionError(
                    f"arrival names tenant {a.tenant}, trace has "
                    f"{self.n_tenants}"
                )

    # ------------------------------------------------------------- statistics
    def window_counts(self, n_windows: int) -> List[int]:
        """Arrival counts in ``n_windows`` equal slices of the horizon."""
        if n_windows < 1:
            raise ProductionError(f"n_windows must be >= 1, got {n_windows}")
        counts = [0] * n_windows
        for a in self.arrivals:
            idx = min(n_windows - 1, a.cycle * n_windows // self.horizon_cycles)
            counts[idx] += 1
        return counts

    def peak_to_mean(self, n_windows: int = 24) -> float:
        """Peak-hour over mean-hour load (the diurnality measure)."""
        counts = self.window_counts(n_windows)
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 0.0
        return max(counts) / mean

    # ------------------------------------------------------------- conversion
    def to_taskgraph(self, *, dependent: bool = True) -> TaskGraph:
        """The trace as a :class:`TaskGraph` the SoC executor can run.

        With ``dependent=True`` each tenant's requests form a chain (a
        tenant pipelines its own requests but tenants are independent —
        the multi-tenant serving shape); with ``dependent=False`` every
        request is an independent task (pure open-loop load).
        """
        if not self.arrivals:
            raise ProductionError("cannot build a task graph from 0 arrivals")
        last_by_tenant: Dict[int, str] = {}
        tasks: List[Task] = []
        for k, a in enumerate(self.arrivals):
            name = f"q{a.tenant}r{k}"
            deps: Tuple[str, ...] = ()
            if dependent and a.tenant in last_by_tenant:
                deps = (last_by_tenant[a.tenant],)
            tasks.append(
                Task(
                    name=name,
                    acc_class=a.acc_class,
                    work_cycles=a.work_cycles,
                    deps=deps,
                )
            )
            last_by_tenant[a.tenant] = name
        return TaskGraph(tasks)


# -------------------------------------------------------------- diurnal load
def diurnal_arrival_trace(
    n_tenants: int,
    horizon_cycles: int,
    *,
    seed: int,
    mean_arrivals: int = 64,
    acc_classes: Sequence[str] = DEFAULT_CLASSES,
    period_cycles: Optional[int] = None,
    trough_ratio: float = 0.2,
    work_range: Tuple[int, int] = (20_000, 120_000),
) -> ArrivalTrace:
    """A diurnal multi-tenant request stream (nonhomogeneous Poisson).

    The instantaneous arrival rate follows a raised cosine between
    ``trough_ratio`` and 1.0 of the peak over ``period_cycles`` (one
    "day"; defaults to the horizon), sampled by thinning so the process
    is an exact nonhomogeneous Poisson stream.  Each tenant gets an
    independent phase offset — tenants peak at different hours, the way
    geographically spread user bases do.  ``mean_arrivals`` is the
    expected *total* request count across all tenants.
    """
    if n_tenants < 1:
        raise ProductionError(f"need at least one tenant, got {n_tenants}")
    if horizon_cycles <= 0:
        raise ProductionError(f"horizon must be positive, got {horizon_cycles}")
    if mean_arrivals < 0:
        raise ProductionError(
            f"mean_arrivals must be >= 0, got {mean_arrivals}"
        )
    if not acc_classes:
        raise ProductionError("need at least one accelerator class")
    if not (0.0 < trough_ratio <= 1.0):
        raise ProductionError(
            f"trough_ratio must be in (0, 1], got {trough_ratio}"
        )
    lo, hi = work_range
    if not (0 < lo <= hi):
        raise ProductionError(f"invalid work range {work_range}")
    period = period_cycles if period_cycles is not None else horizon_cycles
    if period <= 0:
        raise ProductionError(f"period must be positive, got {period}")
    rng = rng_for(seed, n_tenants, 11)
    # Mean of the raised-cosine modulation is (1 + trough) / 2; scale
    # the per-tenant peak rate so the expected total hits mean_arrivals.
    mean_modulation = (1.0 + trough_ratio) / 2.0
    peak_rate = mean_arrivals / (n_tenants * horizon_cycles * mean_modulation)
    arrivals: List[Arrival] = []
    classes = [str(c) for c in acc_classes]
    for tenant in range(n_tenants):
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        t = 0.0
        while True:
            if peak_rate <= 0.0:
                break
            t += float(rng.exponential(1.0 / peak_rate))
            if t >= horizon_cycles:
                break
            # Thinning: accept with probability rate(t) / peak_rate.
            wave = 0.5 * (1.0 - math.cos(2.0 * math.pi * t / period + phase))
            accept_p = trough_ratio + (1.0 - trough_ratio) * wave
            if float(rng.uniform(0.0, 1.0)) > accept_p:
                continue
            arrivals.append(
                Arrival(
                    cycle=int(t),
                    tenant=tenant,
                    acc_class=classes[int(rng.integers(0, len(classes)))],
                    work_cycles=int(rng.integers(lo, hi + 1)),
                )
            )
    return ArrivalTrace(
        arrivals=tuple(arrivals),
        horizon_cycles=horizon_cycles,
        n_tenants=n_tenants,
    )

