"""Phase-attribution wall-time profiler riding the ObsSink fast path.

Every benchmark in this repo ultimately asks the same question: *where
did the wall time go?*  The event kernel already reports every executed
callback through :meth:`ObsSink.kernel_event`, so a sink that
timestamps those reports can attribute the wall time between
consecutive events to the subsystem whose callback just ran — engine
exchange, NoC routing, thermal stepping, SoC/PM bookkeeping — with
zero changes to simulation code and zero cost when not installed.

Attribution model (all wall seconds):

* the gap between two ``kernel_event`` reports is the just-executed
  callback plus the kernel's heap dispatch for it; it is credited to
  the callback's subsystem (dispatch rides along — it is proportional
  to event count, which is exactly what the per-phase split shows);
* everything outside the event loop — setup, result aggregation,
  report building, the gap between epochs — lands in ``harness``.

The phase totals therefore sum *exactly* to the measured wall window
(``total_s``), per epoch and overall.  The profiler is the installed
sink and forwards nothing: every other sink hook is the base no-op, so
a profiled window carries no metrics, tracing or monitor work.  Like
every sink, it observes and never schedules: an enabled run is
bit-identical to a disabled one (``tests/test_perf_phase.py`` proves
it).
"""
# The profiler's whole job is reading the wall clock; the D1 wall-time
# ban protects simulation results, which a sink cannot influence.
# blitzlint: disable-file=D1

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.export import metadata_event, trace_document
from repro.obs.profile import callback_site
from repro.obs.runtime import install, uninstall
from repro.obs.sink import ObsSink

__all__ = [
    "PHASES",
    "PhaseProfiler",
    "classify_site",
    "phase_chrome_trace",
    "phase_summary_lines",
]

#: Module-prefix -> phase table, most specific prefix first.  The
#: classifier matches the callback's defining module, which works
#: because the engine/NoC/SoC schedule closures defined inside their
#: own methods (see :func:`repro.obs.profile.callback_site`).
_PHASE_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.core", "engine"),
    ("repro.noc", "noc"),
    ("repro.thermal", "thermal"),
    ("repro.soc", "soc"),
    ("repro.workloads", "workload"),
    ("repro.faults", "faults"),
    ("repro.dvfs", "dvfs"),
    ("repro.sim", "kernel"),
)

#: Every phase the profiler can report, in display order.  ``harness``
#: is wall time outside the event loop; ``other`` is any callback from
#: an unrecognized module.
PHASES: Tuple[str, ...] = tuple(
    [phase for _, phase in _PHASE_PREFIXES] + ["other", "harness"]
)


def classify_site(site: str) -> str:
    """Phase name for a ``module:qualname`` callback site."""
    module = site.split(":", 1)[0]
    for prefix, phase in _PHASE_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return phase
    return "other"


class PhaseProfiler(ObsSink):
    """Wall-time-per-subsystem collecting sink.

    As a context manager it opens its wall window and installs itself
    as the sink for the ``with`` body::

        with PhaseProfiler() as prof:
            ...  # run the simulation here
        print("\n".join(phase_summary_lines(prof)))
    """

    def __init__(self) -> None:
        #: phase -> wall seconds, whole run.
        self.totals: Dict[str, float] = {}
        #: epoch label -> phase -> wall seconds.
        self.by_epoch: Dict[str, Dict[str, float]] = {}
        #: epoch labels in first-seen order ("" is the implicit first).
        self.epochs: List[str] = [""]
        self.events: int = 0
        self.total_s: float = 0.0
        self._epoch = ""
        self._mark: Optional[float] = None
        self._t0: Optional[float] = None

    # ------------------------------------------------------------ lifecycle
    def __enter__(self) -> PhaseProfiler:
        self.start()
        install(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        uninstall()
        self.finish()

    def start(self) -> None:
        """Open the measured wall window (idempotent)."""
        if self._t0 is None:
            self._t0 = time.perf_counter()
            self._mark = self._t0

    def finish(self) -> None:
        """Close the window; residual time is credited to ``harness``."""
        if self._t0 is None:
            return
        now = time.perf_counter()
        self._flush_gap(now, "harness")
        self.total_s = now - self._t0

    # ---------------------------------------------------------- attribution
    def _add(self, phase: str, seconds: float) -> None:
        if seconds <= 0.0:
            return
        self.totals[phase] = self.totals.get(phase, 0.0) + seconds
        per = self.by_epoch.setdefault(self._epoch, {})
        per[phase] = per.get(phase, 0.0) + seconds

    def _flush_gap(self, now: float, phase: str) -> None:
        """Credit the time since the last mark to ``phase``; move the
        mark to ``now``."""
        if self._mark is not None:
            self._add(phase, now - self._mark)
        self._mark = now

    def attributed_s(self) -> float:
        """Sum of all phase totals (== ``total_s`` after finish)."""
        return sum(self.totals.values())

    # ------------------------------------------------------------ sink hooks
    def kernel_event(self, time_: int, callback: Callable[[], None]) -> None:
        now = time.perf_counter()
        if self._t0 is None:
            self._t0 = now
            self._mark = now
        self._flush_gap(now, classify_site(callback_site(callback)))
        self.events += 1

    def epoch(self, label: str) -> None:
        # Inter-epoch time (trial teardown/setup) is harness work.
        self._flush_gap(time.perf_counter(), "harness")
        self._epoch = label
        if label not in self.epochs:
            self.epochs.append(label)


# ------------------------------------------------------------------ readouts
def phase_summary_lines(profiler: PhaseProfiler) -> List[str]:
    """Aligned where-did-the-time-go table for one profiled window."""
    total = profiler.total_s or profiler.attributed_s()
    lines = [
        f"phase profile: {profiler.events} events, "
        f"{total * 1000:.1f} ms wall"
    ]
    if not profiler.totals:
        lines.append("(no phases attributed)")
        return lines
    ranked = sorted(
        profiler.totals.items(), key=lambda kv: (-kv[1], kv[0])
    )
    width = max(len(p) for p, _ in ranked)
    for phase, seconds in ranked:
        share = 100.0 * seconds / total if total > 0 else 0.0
        lines.append(
            f"{phase:<{width}}  {seconds * 1000:9.2f} ms  {share:5.1f}%"
        )
    return lines


def phase_chrome_trace(profiler: PhaseProfiler) -> Dict[str, object]:
    """Render the per-epoch phase totals as a Chrome ``trace_event`` doc.

    Wall time, in integer microseconds — each epoch is a process row,
    each phase a thread row carrying one complete (``ph: "X"``) span.
    Built with the :mod:`repro.obs.export` helpers and written by its
    :func:`~repro.obs.export.write_trace`, so it loads in
    ui.perfetto.dev next to the sim-cycle traces (the ``time_unit``
    differs and is advertised in ``otherData``).
    """
    events: List[Dict[str, object]] = []
    phase_tid = {phase: i + 1 for i, phase in enumerate(PHASES)}
    for pid, epoch in enumerate(profiler.epochs, start=1):
        per = profiler.by_epoch.get(epoch)
        if not per:
            continue
        label = f"epoch:{epoch}" if epoch else "run"
        events.append(metadata_event("process_name", pid, 0, label))
        cursor = 0
        for phase in PHASES:
            seconds = per.get(phase)
            if seconds is None:
                continue
            tid = phase_tid[phase]
            events.append(metadata_event("thread_name", pid, tid, phase))
            dur = max(1, int(round(seconds * 1e6)))
            events.append(
                {
                    "ph": "X",
                    "name": phase,
                    "cat": "perf",
                    "pid": pid,
                    "tid": tid,
                    "ts": cursor,
                    "dur": dur,
                    "args": {"seconds": round(seconds, 9)},
                }
            )
            cursor += dur
    return trace_document(
        events,
        {
            "time_unit": "wall-us",
            "events": profiler.events,
            "total_s": round(profiler.total_s, 9),
        },
    )
