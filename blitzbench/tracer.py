"""Layer tracer for the traced run of the batch workloads.

It times calls into the simulator's public functions from outside, by
replacing them on their classes for the life of one process:

* ``Simulator.run`` and ``Simulator.schedule`` are the ``sim`` layer;
  every callback passed to ``schedule`` (and every packet handler
  passed to ``NocFabric.attach``) is wrapped and charged to the layer
  of the module that defines it (``repro.core.*`` -> ``core``, ...);
* ``NocFabric.send`` is ``noc``; ``MeshTopology`` geometry calls are
  ``noc.topology``;
* ``CoinExchangeEngine.__init__`` is ``core.build``;
* ``PowerFrequencyCurve.f_max_at`` / ``v_for_f`` are ``power``.

Self time is computed online with a stack: each timed call adds its
duration minus the time of the timed calls nested inside it, so the
self times of all layers add up to the time of the outermost calls
(the jobs).  Per-event calls are summed into per-layer totals; spans
(name, start, end, parent, job) are kept only at job and coarse
layer-call boundaries and written out as a Chrome trace at the end.

A hook whose target no longer exists is reported as absent rather than
failing the run, so a later change may remove a fine-grained function.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Top-level ``repro`` package -> layer its callbacks are charged to.
LAYER_OF_PACKAGE = {
    "sim": "sim",
    "noc": "noc",
    "core": "core",
    "power": "power",
    "soc": "soc",
    "experiments": "soc",
    "workloads": "soc",
    "dvfs": "dvfs",
    "baselines": "baselines",
}

#: Every self-time bucket, in report order; ``other`` collects callbacks
#: from packages outside the map above.
LAYERS = (
    "sim",
    "noc",
    "noc.topology",
    "core",
    "core.build",
    "power",
    "soc",
    "dvfs",
    "baselines",
    "other",
)

#: (module, "Class.method", layer, kind).  ``span`` hooks record a span
#: per call; ``fine`` hooks are counted on every call and timed only at
#: the outermost call of their layer (``v_for_f`` calls ``f_max_at``).
HOOKS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.kernel", "Simulator.run", "sim", "span"),
    ("repro.sim.kernel", "Simulator.schedule", "sim", "schedule"),
    ("repro.noc.fabric", "NocFabric.send", "noc", "send"),
    ("repro.noc.fabric", "NocFabric.attach", "noc", "attach"),
    ("repro.noc.topology", "MeshTopology.coords", "noc.topology", "fine"),
    ("repro.noc.topology", "MeshTopology.hop_distance", "noc.topology", "fine"),
    ("repro.noc.topology", "MeshTopology.tile_id", "noc.topology", "fine"),
    ("repro.noc.topology", "MeshTopology.mesh_neighbors", "noc.topology", "fine"),
    ("repro.noc.topology", "MeshTopology.torus_neighbors", "noc.topology", "fine"),
    ("repro.noc.topology", "MeshTopology.non_neighbors", "noc.topology", "fine"),
    ("repro.noc.topology", "MeshTopology.xy_route", "noc.topology", "fine"),
    ("repro.core.engine", "CoinExchangeEngine.__init__", "core.build", "engine"),
    ("repro.power.characterization", "PowerFrequencyCurve.f_max_at", "power", "fine"),
    ("repro.power.characterization", "PowerFrequencyCurve.v_for_f", "power", "fine"),
)

#: Counter incremented by each ``fine`` hook's layer.
_FINE_COUNTER = {"noc.topology": "noc.topology_calls", "power": "power.vf_calls"}


def layer_of(fn: Any) -> str:
    """The layer a callable is charged to: that of its defining module."""
    target = getattr(fn, "__func__", fn)
    while isinstance(target, functools.partial):
        target = target.func
    module = getattr(target, "__module__", None) or type(fn).__module__
    parts = str(module).split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return LAYER_OF_PACKAGE.get(parts[1], "other")
    return "other"


class Tracer:
    """Per-layer self time, counts and coarse spans for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        #: Open timed calls: child time accumulated so far, and layer.
        self._child: List[float] = []
        self._layer: List[str] = []
        #: [name, layer, start, end, parent index, job id, args]
        self.spans: List[list] = []
        self._open: List[int] = []
        self.job: Optional[str] = None
        self.engines: List[Any] = []
        self.absent: List[str] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.origin = clock()

    # ---------------------------------------------------------- accounting
    def call(
        self,
        layer: str,
        fn: Callable[..., Any],
        *args: Any,
        span: Optional[str] = None,
        **kwargs: Any,
    ) -> Any:
        """Run ``fn`` as one timed call of ``layer``."""
        t0 = self.clock()
        self._child.append(0.0)
        self._layer.append(layer)
        index = -1
        if span is not None:
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([span, layer, t0, t0, parent, self.job, None])
            self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            elapsed = t1 - t0
            self.self_s[layer] += elapsed - self._child.pop()
            self._layer.pop()
            if self._child:
                self._child[-1] += elapsed
            if index >= 0:
                self.spans[index][3] = t1
                self._open.pop()

    def run_job(
        self, job_id: str, layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Any:
        """Run one job as a root span; its args get the job's per-layer
        self-time split."""
        before = dict(self.self_s)
        self.job = job_id
        index = len(self.spans)
        try:
            return self.call(layer, fn, *args, span=job_id, **kwargs)
        finally:
            self.spans[index][6] = {
                f"self_s.{k}": round(v - before.get(k, 0.0), 6)
                for k, v in sorted(self.self_s.items())
                if v - before.get(k, 0.0) > 0.0
            }
            self.counts["core.exchanges"] += sum(
                int(getattr(e, "exchanges_started", 0)) for e in self.engines
            )
            self.engines.clear()
            self.job = None

    def wrap_callback(self, cb: Callable[..., Any], counter: str = "") -> Callable[..., Any]:
        """``cb`` as a timed call of its defining module's layer."""
        layer = layer_of(cb)
        clock, child, layers = self.clock, self._child, self._layer
        self_s, counts = self.self_s, self.counts

        def timed(*args: Any) -> Any:
            if counter:
                counts[counter] += 1
            t0 = clock()
            child.append(0.0)
            layers.append(layer)
            try:
                return cb(*args)
            finally:
                elapsed = clock() - t0
                self_s[layer] += elapsed - child.pop()
                layers.pop()
                if child:
                    child[-1] += elapsed

        return timed

    # --------------------------------------------------------------- hooks
    def install(self) -> None:
        """Patch every hook target that exists; note the absent ones."""
        for module_name, qualname, layer, kind in HOOKS:
            cls_name, _, attr = qualname.partition(".")
            try:
                owner = getattr(importlib.import_module(module_name), cls_name)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{qualname}")
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{qualname}")
                continue
            self._patches.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, self._make_hook(original, layer, kind, qualname))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _make_hook(
        self, original: Callable[..., Any], layer: str, kind: str, qualname: str
    ) -> Callable[..., Any]:
        tracer = self
        counts, layers = self.counts, self._layer

        if kind == "span":

            @functools.wraps(original)
            def span_hook(*args: Any, **kwargs: Any) -> Any:
                return tracer.call(layer, original, *args, span=qualname, **kwargs)

            return span_hook

        if kind == "schedule":

            @functools.wraps(original)
            def schedule_hook(sim: Any, delay: Any, callback: Any, *args: Any, **kwargs: Any) -> Any:
                counts["sim.scheduled"] += 1
                wrapped = tracer.wrap_callback(callback, "sim.events")
                return tracer.call(layer, original, sim, delay, wrapped, *args, **kwargs)

            return schedule_hook

        if kind == "send":

            @functools.wraps(original)
            def send_hook(*args: Any, **kwargs: Any) -> Any:
                counts["noc.packets"] += 1
                return tracer.call(layer, original, *args, **kwargs)

            return send_hook

        if kind == "attach":

            @functools.wraps(original)
            def attach_hook(fabric: Any, tid: Any, handler: Any, *args: Any, **kwargs: Any) -> Any:
                return original(fabric, tid, tracer.wrap_callback(handler), *args, **kwargs)

            return attach_hook

        if kind == "engine":

            @functools.wraps(original)
            def engine_hook(engine: Any, *args: Any, **kwargs: Any) -> Any:
                tracer.engines.append(engine)
                return tracer.call(
                    layer, original, engine, *args, span=qualname, **kwargs
                )

            return engine_hook

        counter = _FINE_COUNTER[layer]

        @functools.wraps(original)
        def fine_hook(*args: Any, **kwargs: Any) -> Any:
            counts[counter] += 1
            if layers and layers[-1] == layer:
                return original(*args, **kwargs)
            return tracer.call(layer, original, *args, **kwargs)

        return fine_hook

    # ------------------------------------------------------------- output
    def write_chrome_trace(self, path: Path) -> None:
        write_chrome_trace(path, self.spans, self.origin, "blitzbench traced run")


def chrome_trace(spans: List[list], origin: float, process: str) -> Dict[str, Any]:
    """Spans ``[name, category, start, end, parent index, job, args]``
    (seconds) as a Chrome-trace document that Perfetto opens."""
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": process}}
    ]
    for name, category, start, end, parent, job, extra in spans:
        args: Dict[str, Any] = {"job": job}
        if parent is not None:
            args["parent"] = spans[parent][0]
        if extra:
            args.update(extra)
        events.append(
            {
                "name": name,
                "cat": category,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: Path, spans: List[list], origin: float, process: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(spans, origin, process)) + "\n")
