"""Online health monitors: judge a live run while it happens.

``repro.obs`` records what a simulation did; this module decides
whether it *behaved*.  A :class:`Monitor` is a cheap online detector
subscribed through the same single-sink fast-flag path as every other
instrument (``repro.obs.runtime.sink``): with no sink installed the
simulator pays one attribute load per site, and with monitors enabled
the run is still bit-identical, because monitors — like all sinks —
observe and never schedule.  Each detector emits structured,
sim-cycle-stamped :class:`Alert` records with tile attribution, which
the :mod:`repro.report` layer freezes into RunReport artifacts.

The built-in detectors watch the paper's dynamic-behaviour claims:

* :class:`BudgetOvershootMonitor` — total managed power above the
  budget for longer than an actuator-slew grace window (Fig. 16's
  "budget is never exceeded" claim);
* :class:`StarvationMonitor` — a tile stuck at zero coins while the
  system is otherwise active (the no-starvation claim);
* :class:`OscillationMonitor` — coin flow direction thrashing on one
  tile (exchange livelock);
* :class:`ConvergenceStallMonitor` — no coin movement for a long
  stretch before the run ends (Fig. 3/7 bounded-convergence claim);
* :class:`ReconcileBacklogMonitor` — lost-coin reconciliation falling
  behind under fault injection (the ledger liveness claim).

All state lives in plain lists/dicts keyed by tile id and is iterated
in sorted order, so monitor bookkeeping obeys blitzlint rule D1 like
the simulator it watches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.obs.sink import Observation, ObsSink

__all__ = [
    "Alert",
    "BudgetOvershootMonitor",
    "ConvergenceStallMonitor",
    "Monitor",
    "MonitorSet",
    "OscillationMonitor",
    "ReconcileBacklogMonitor",
    "StarvationMonitor",
    "default_monitors",
]

Number = Union[int, float]

#: Alert severities, mildest first.
SEVERITIES = ("info", "warn", "error")


@dataclass(frozen=True)
class Alert:
    """One structured health finding, stamped in simulation cycles."""

    monitor: str
    severity: str
    cycle: int
    message: str
    tile: Optional[int] = None
    epoch: str = ""
    data: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown alert severity {self.severity!r}; "
                f"expected one of {SEVERITIES}"
            )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dict (the RunReport alert-record shape)."""
        return {
            "monitor": self.monitor,
            "severity": self.severity,
            "cycle": self.cycle,
            "tile": self.tile,
            "epoch": self.epoch,
            "message": self.message,
            "data": dict(self.data),
        }


class Monitor:
    """Base online detector: override the hooks you care about.

    All hooks receive *simulation cycles*.  A monitor must never raise
    from a hook on well-formed input and must never mutate anything
    outside its own state — it shares the sink path with the collecting
    Observation, and a monitor that throws would abort the simulation
    it is supposed to judge.
    """

    name: str = "monitor"
    #: Called with each alert right after :meth:`emit` records it, so a
    #: live consumer sees alerts in emission order (set by MonitorSet).
    on_alert: Optional[Callable[[Alert], None]] = None

    def __init__(self) -> None:
        self.alerts: List[Alert] = []
        self.epoch_label: str = ""

    # ------------------------------------------------------------- lifecycle
    def reset(self, epoch: str) -> None:
        """Start a new epoch (trial); per-run state is discarded."""
        self.epoch_label = epoch

    def flush(self, time: int) -> None:
        """Close any open condition at end of run/epoch (``time`` =
        last simulation cycle seen)."""

    # ----------------------------------------------------------------- hooks
    def on_inc(
        self, name: str, time: int, n: int, labels: Mapping[str, object]
    ) -> None:
        """A counter increment passed through the sink."""

    def on_sample(
        self, name: str, time: int, value: float, track: Optional[int]
    ) -> None:
        """A numeric counter-track sample (power, frequency, ...)."""

    def on_event(
        self,
        name: str,
        time: int,
        cat: str,
        track: Optional[int],
        args: Mapping[str, object],
    ) -> None:
        """An instant event (coin apply, activity edge, ...)."""

    # ------------------------------------------------------------- emission
    def emit(
        self,
        severity: str,
        cycle: int,
        message: str,
        *,
        tile: Optional[int] = None,
        **data: object,
    ) -> Alert:
        """Record one alert and publish it to :attr:`on_alert`; returns
        it (for tests)."""
        alert = Alert(
            monitor=self.name,
            severity=severity,
            cycle=int(cycle),
            message=message,
            tile=tile,
            epoch=self.epoch_label,
            data=dict(data),
        )
        self.alerts.append(alert)
        if self.on_alert is not None:
            self.on_alert(alert)
        return alert


class BudgetOvershootMonitor(Monitor):
    """Total managed power above budget for more than a grace window.

    Tracks the per-tile step functions published as ``soc.power_mw``
    samples and keeps a running total; an excursion above
    ``budget_mw * (1 + tolerance)`` that lasts longer than
    ``grace_cycles`` (the actuator-slew allowance — Fig. 16 grants a
    10% transient band for the same reason) raises an ``error`` alert
    attributing the worst-offending tile.
    """

    name = "budget_overshoot"

    def __init__(
        self,
        budget_mw: float,
        *,
        grace_cycles: int = 256,
        tolerance: float = 0.10,
    ) -> None:
        super().__init__()
        if budget_mw <= 0:
            raise ValueError(f"budget_mw must be > 0, got {budget_mw}")
        if grace_cycles < 0:
            raise ValueError(f"grace_cycles must be >= 0, got {grace_cycles}")
        self.budget_mw = float(budget_mw)
        self.grace_cycles = int(grace_cycles)
        self.tolerance = float(tolerance)
        self._power: Dict[int, float] = {}
        self._total = 0.0
        self._over_since: Optional[int] = None
        self._worst_mw = 0.0
        self._worst_tile: Optional[int] = None

    @property
    def limit_mw(self) -> float:
        """The alerting threshold: budget plus the transient band."""
        return self.budget_mw * (1.0 + self.tolerance)

    def reset(self, epoch: str) -> None:
        super().reset(epoch)
        self._power.clear()
        self._total = 0.0
        self._over_since = None
        self._worst_mw = 0.0
        self._worst_tile = None

    def on_sample(
        self, name: str, time: int, value: float, track: Optional[int]
    ) -> None:
        if name != "soc.power_mw" or track is None:
            return
        self._total += value - self._power.get(track, 0.0)
        self._power[track] = value
        if self._total > self.limit_mw:
            if self._over_since is None:
                self._over_since = time
                self._worst_mw = 0.0
                self._worst_tile = None
            if self._total > self._worst_mw:
                self._worst_mw = self._total
                self._worst_tile = max(
                    sorted(self._power), key=lambda t: self._power[t]
                )
        elif self._over_since is not None:
            self._close(time)

    def flush(self, time: int) -> None:
        if self._over_since is not None:
            self._close(time)

    def _close(self, time: int) -> None:
        assert self._over_since is not None
        duration = time - self._over_since
        if duration > self.grace_cycles:
            self.emit(
                "error",
                self._over_since,
                f"power {self._worst_mw:.1f} mW exceeded the "
                f"{self.limit_mw:.1f} mW limit for {duration} cycles",
                tile=self._worst_tile,
                budget_mw=self.budget_mw,
                limit_mw=self.limit_mw,
                peak_mw=round(self._worst_mw, 3),
                duration_cycles=duration,
            )
        self._over_since = None


class StarvationMonitor(Monitor):
    """Zero coins *plus pending work* for longer than a window.

    Coin levels arrive as the engine's ``apply`` instant events (one
    per non-zero delta, carrying the tile's new ``has``); pending work
    is tracked from the power manager's ``tile_start``/``tile_end``
    activity edges.  A tile that is active yet pinned at zero coins for
    more than ``window_cycles`` — while the rest of the system
    demonstrably keeps exchanging — is the paper's starvation case and
    raises an ``error``.  An idle tile at zero coins is normal (it
    donated its budget away) and never alerts.
    """

    name = "starvation"

    def __init__(self, *, window_cycles: int = 20_000) -> None:
        super().__init__()
        if window_cycles <= 0:
            raise ValueError(f"window_cycles must be > 0, got {window_cycles}")
        self.window_cycles = int(window_cycles)
        self._zero: Dict[int, bool] = {}
        self._active: Dict[int, bool] = {}
        self._starved_since: Dict[int, int] = {}
        self._alerted: Dict[int, bool] = {}

    def reset(self, epoch: str) -> None:
        super().reset(epoch)
        self._zero.clear()
        self._active.clear()
        self._starved_since.clear()
        self._alerted.clear()

    def _update(self, tile: int, time: int) -> None:
        starving = self._zero.get(tile, False) and self._active.get(
            tile, False
        )
        if starving:
            self._starved_since.setdefault(tile, time)
        else:
            self._starved_since.pop(tile, None)
            self._alerted.pop(tile, None)

    def on_event(
        self,
        name: str,
        time: int,
        cat: str,
        track: Optional[int],
        args: Mapping[str, object],
    ) -> None:
        if cat == "pm" and track is not None:
            if name == "tile_start":
                self._active[track] = True
            elif name == "tile_end":
                self._active[track] = False
            else:
                return
            self._update(track, time)
            return
        if cat != "engine" or name != "apply" or track is None:
            return
        has = args.get("has")
        if not isinstance(has, int):
            return
        self._zero[track] = has == 0
        self._update(track, time)
        # This apply proves the system is live at `time`: sweep for
        # tiles whose starved stretch has exceeded the window.
        for tile in sorted(self._starved_since):
            self._maybe_emit(tile, time)

    def flush(self, time: int) -> None:
        for tile in sorted(self._starved_since):
            self._maybe_emit(tile, time)

    def _maybe_emit(self, tile: int, now: int) -> None:
        since = self._starved_since[tile]
        if now - since > self.window_cycles and not self._alerted.get(tile):
            self._alerted[tile] = True
            self.emit(
                "error",
                since,
                f"tile {tile} at zero coins with pending work for "
                f"{now - since} cycles",
                tile=tile,
                duration_cycles=now - since,
            )


class OscillationMonitor(Monitor):
    """Coin flow on one tile reversing direction rapidly (thrash).

    Counts sign alternations of the engine's applied deltas per tile;
    ``max_flips`` reversals inside ``window_cycles`` raises one alert
    and restarts the count, so a sustained oscillation produces a
    bounded alert stream rather than one per flip.
    """

    name = "coin_oscillation"

    def __init__(
        self, *, window_cycles: int = 2_048, max_flips: int = 8
    ) -> None:
        super().__init__()
        if window_cycles <= 0:
            raise ValueError(f"window_cycles must be > 0, got {window_cycles}")
        if max_flips < 2:
            raise ValueError(f"max_flips must be >= 2, got {max_flips}")
        self.window_cycles = int(window_cycles)
        self.max_flips = int(max_flips)
        self._last_sign: Dict[int, int] = {}
        self._flips: Dict[int, List[int]] = {}

    def reset(self, epoch: str) -> None:
        super().reset(epoch)
        self._last_sign.clear()
        self._flips.clear()

    def on_event(
        self,
        name: str,
        time: int,
        cat: str,
        track: Optional[int],
        args: Mapping[str, object],
    ) -> None:
        if cat != "engine" or name != "apply" or track is None:
            return
        delta = args.get("delta")
        if not isinstance(delta, int) or delta == 0:
            return
        sign = 1 if delta > 0 else -1
        last = self._last_sign.get(track)
        self._last_sign[track] = sign
        if last is None or last == sign:
            return
        flips = self._flips.setdefault(track, [])
        flips.append(time)
        horizon = time - self.window_cycles
        while flips and flips[0] < horizon:
            flips.pop(0)
        if len(flips) >= self.max_flips:
            self.emit(
                "warn",
                time,
                f"tile {track} coin flow reversed {len(flips)} times "
                f"in {self.window_cycles} cycles",
                tile=track,
                flips=len(flips),
                window_cycles=self.window_cycles,
            )
            flips.clear()


class ConvergenceStallMonitor(Monitor):
    """No coin movement for a long stretch: the watchdog for the
    bounded-convergence claim.

    Any applied delta is "progress".  A silent gap longer than
    ``stall_cycles`` between two progress marks — or between the last
    progress mark and the end of the run — raises a ``warn`` alert (the
    run may still converge later; the report layer decides whether the
    run *ended* stalled).
    """

    name = "convergence_stall"

    def __init__(self, *, stall_cycles: int = 100_000) -> None:
        super().__init__()
        if stall_cycles <= 0:
            raise ValueError(f"stall_cycles must be > 0, got {stall_cycles}")
        self.stall_cycles = int(stall_cycles)
        self._last_progress: Optional[int] = None

    def reset(self, epoch: str) -> None:
        super().reset(epoch)
        self._last_progress = None

    def on_event(
        self,
        name: str,
        time: int,
        cat: str,
        track: Optional[int],
        args: Mapping[str, object],
    ) -> None:
        if cat != "engine" or name != "apply":
            return
        last = self._last_progress
        if last is not None and time - last > self.stall_cycles:
            self._emit_stall(last, time)
        self._last_progress = time

    def flush(self, time: int) -> None:
        last = self._last_progress
        if last is not None and time - last > self.stall_cycles:
            self._emit_stall(last, time)
            self._last_progress = time

    def _emit_stall(self, last: int, now: int) -> None:
        self.emit(
            "warn",
            last,
            f"no coin movement for {now - last} cycles "
            f"(watchdog limit {self.stall_cycles})",
            gap_cycles=now - last,
            stall_cycles=self.stall_cycles,
        )


class ReconcileBacklogMonitor(Monitor):
    """Lost-coin reconciliation falling behind under fault injection.

    The fault layer's ledger re-mints coins lost to dropped
    ``COIN_UPDATE`` packets (``engine.coins_lost`` /
    ``engine.coins_reminted`` counters).  A backlog — lost minus
    re-minted — larger than ``max_backlog`` means reconciliation is not
    keeping up with the loss rate; the alert closes (and re-arms) only
    after the backlog drains to half the limit, so a hovering backlog
    cannot spam."""

    name = "reconcile_backlog"

    def __init__(self, *, max_backlog: int = 32) -> None:
        super().__init__()
        if max_backlog <= 0:
            raise ValueError(f"max_backlog must be > 0, got {max_backlog}")
        self.max_backlog = int(max_backlog)
        self._lost = 0
        self._reminted = 0
        self._exceeded = False

    @property
    def backlog(self) -> int:
        return self._lost - self._reminted

    def reset(self, epoch: str) -> None:
        super().reset(epoch)
        self._lost = 0
        self._reminted = 0
        self._exceeded = False

    def on_inc(
        self, name: str, time: int, n: int, labels: Mapping[str, object]
    ) -> None:
        if name == "engine.coins_lost":
            self._lost += n
        elif name == "engine.coins_reminted":
            self._reminted += n
        else:
            return
        backlog = self.backlog
        if backlog > self.max_backlog and not self._exceeded:
            self._exceeded = True
            self.emit(
                "error",
                time,
                f"reconciliation backlog {backlog} coins exceeds "
                f"{self.max_backlog}",
                backlog=backlog,
                lost=self._lost,
                reminted=self._reminted,
            )
        elif backlog <= self.max_backlog // 2:
            self._exceeded = False


def default_monitors(
    budget_mw: Optional[float] = None,
    *,
    grace_cycles: int = 256,
    starvation_window: int = 20_000,
    stall_cycles: int = 100_000,
    max_backlog: int = 32,
) -> List[Monitor]:
    """The standard detector battery; budget watching needs a budget."""
    monitors: List[Monitor] = []
    if budget_mw is not None:
        monitors.append(
            BudgetOvershootMonitor(budget_mw, grace_cycles=grace_cycles)
        )
    monitors.extend(
        [
            StarvationMonitor(window_cycles=starvation_window),
            OscillationMonitor(),
            ConvergenceStallMonitor(stall_cycles=stall_cycles),
            ReconcileBacklogMonitor(max_backlog=max_backlog),
        ]
    )
    return monitors


class MonitorSet(ObsSink):
    """The sink that fans instrumentation out to monitors.

    Wraps an optional collecting :class:`Observation` (so one installed
    sink both records and judges) and dispatches the narrow per-kind
    hooks to every monitor.  Epoch marks flush and reset the monitors —
    each trial restarts simulation time at zero, so open conditions are
    closed against the previous trial's final cycle first.

    ``on_alert`` is handed to every monitor, which calls it with each
    alert as it is raised — during the run and from :meth:`finish` —
    so a live consumer (``repro.serve`` streams them) sees every alert
    exactly once, in emission order.
    """

    def __init__(
        self,
        monitors: Optional[List[Monitor]] = None,
        observation: Optional[Observation] = None,
        on_alert: Optional[Callable[[Alert], None]] = None,
    ) -> None:
        self.monitors: List[Monitor] = list(
            monitors if monitors is not None else default_monitors()
        )
        if on_alert is not None:
            for monitor in self.monitors:
                monitor.on_alert = on_alert
        self.observation = observation
        self.last_time = 0

    # ------------------------------------------------------------ aggregation
    def alerts(self) -> List[Alert]:
        """All alerts from all monitors, in (cycle, monitor) order."""
        collected: List[Alert] = []
        for monitor in self.monitors:
            collected.extend(monitor.alerts)
        return sorted(
            collected, key=lambda a: (a.epoch, a.cycle, a.monitor)
        )

    def alert_counts(self) -> Dict[str, int]:
        """Alert count per monitor name (zero-count monitors included)."""
        counts = {monitor.name: 0 for monitor in self.monitors}
        for monitor in self.monitors:
            counts[monitor.name] += len(monitor.alerts)
        return counts

    def finish(self) -> None:
        """Flush open conditions at the end of the observed run."""
        for monitor in self.monitors:
            monitor.flush(self.last_time)

    # ------------------------------------------------------------------ sink
    def _touch(self, time: int) -> None:
        if time > self.last_time:
            self.last_time = time

    def epoch(self, label: str) -> None:
        if self.observation is not None:
            self.observation.epoch(label)
        for monitor in self.monitors:
            monitor.flush(self.last_time)
            monitor.reset(label)
        self.last_time = 0

    def inc(self, name: str, time: int, n: int = 1, **labels: object) -> None:
        if self.observation is not None:
            self.observation.inc(name, time, n, **labels)
        self._touch(time)
        for monitor in self.monitors:
            monitor.on_inc(name, time, n, labels)

    def set_gauge(
        self, name: str, time: int, value: Number, **labels: object
    ) -> None:
        if self.observation is not None:
            self.observation.set_gauge(name, time, value, **labels)
        self._touch(time)

    def observe(
        self, name: str, time: int, value: Number, **labels: object
    ) -> None:
        if self.observation is not None:
            self.observation.observe(name, time, value, **labels)
        self._touch(time)

    def begin_span(
        self,
        span_id: str,
        name: str,
        time: int,
        *,
        cat: str = "",
        track: Optional[int] = None,
        parent_id: Optional[str] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        if self.observation is not None:
            self.observation.begin_span(
                span_id, name, time,
                cat=cat, track=track, parent_id=parent_id, args=args,
            )
        self._touch(time)

    def end_span(
        self,
        span_id: str,
        time: int,
        *,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        if self.observation is not None:
            self.observation.end_span(span_id, time, args=args)
        self._touch(time)

    def complete_span(
        self,
        span_id: str,
        name: str,
        begin: int,
        end: int,
        *,
        cat: str = "",
        track: Optional[int] = None,
        parent_id: Optional[str] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        if self.observation is not None:
            self.observation.complete_span(
                span_id, name, begin, end,
                cat=cat, track=track, parent_id=parent_id, args=args,
            )
        self._touch(end)

    def event(
        self,
        name: str,
        time: int,
        *,
        cat: str = "",
        track: Optional[int] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        if self.observation is not None:
            self.observation.event(
                name, time, cat=cat, track=track, args=args
            )
        self._touch(time)
        event_args: Mapping[str, object] = args if args is not None else {}
        for monitor in self.monitors:
            monitor.on_event(name, time, cat, track, event_args)

    def sample(
        self,
        name: str,
        time: int,
        value: Number,
        *,
        cat: str = "",
        track: Optional[int] = None,
    ) -> None:
        if self.observation is not None:
            self.observation.sample(name, time, value, cat=cat, track=track)
        self._touch(time)
        for monitor in self.monitors:
            monitor.on_sample(name, time, float(value), track)

    def kernel_event(self, time: int, callback) -> None:  # type: ignore[no-untyped-def]
        if self.observation is not None:
            self.observation.kernel_event(time, callback)


def final_coin_levels(observation: Observation) -> Dict[int, int]:
    """Per-tile final coin level from the engine's ``apply`` events.

    Uses the *last* epoch recorded in the trace (multi-trial sessions
    report the final trial).  Tiles that never saw a delta are absent.
    """
    last_epoch = ""
    for event in observation.trace.events:
        if event.cat == "engine" and event.name == "apply":
            last_epoch = event.epoch
    levels: Dict[int, int] = {}
    for event in observation.trace.events:
        if (
            event.cat == "engine"
            and event.name == "apply"
            and event.epoch == last_epoch
            and event.track is not None
        ):
            has = event.args.get("has")
            if isinstance(has, int):
                levels[event.track] = has
    return levels


#: Tuple export for the lint scope documentation (see analysis.lint).
MONITOR_KINDS: Tuple[str, ...] = (
    BudgetOvershootMonitor.name,
    StarvationMonitor.name,
    OscillationMonitor.name,
    ConvergenceStallMonitor.name,
    ReconcileBacklogMonitor.name,
)
