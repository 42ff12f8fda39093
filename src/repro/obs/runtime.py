"""The scoped fast flag gating every instrumentation point.

Instrumented call sites throughout the simulator read one module
attribute and branch::

    from repro.obs import runtime as _obs
    ...
    if _obs.sink is not None:
        _obs.sink.inc("engine.exchanges_initiated", self.sim.now)

When no sink is installed (the default) each site costs a single
attribute lookup plus an ``is None`` test — the simulation executes
the same instruction path as an uninstrumented build, and results are
bit-identical either way because sinks observe but never schedule.

The lookup is *scoped*, not process-wide: every thread — and every
asyncio task — resolves its own sink, and a context where nothing was
installed sees ``None``.  This is what lets ``repro.serve`` run N
execution lanes in one process, each streaming its own job.  The
mechanism is :class:`ScopedSlot`, which :mod:`repro.faults.runtime`
reuses for the fault injector.

Within one context only one sink may be installed at a time —
:func:`install` raises on nesting — and :func:`observing` scopes a
sink to a ``with`` block.  ContextVar state set inside a thread
*persists* on that thread (thread pools reuse threads), so
:func:`uninstall` in a ``finally`` is load-bearing for any code that
installs outside ``observing``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Generic, Iterator, Optional, Type, TypeVar

from repro.obs.sink import ObsError, ObsSink, Observation

__all__ = [
    "ScopedSlot",
    "current",
    "enabled",
    "install",
    "observing",
    "sink",
    "uninstall",
]

T = TypeVar("T")


class ScopedSlot(Generic[T]):
    """A per-context value served as a module attribute.

    ``ScopedSlot(globals(), "sink", ...)`` makes ``module.sink`` read
    the value installed in the *current* context: it lives in a
    :class:`~contextvars.ContextVar`, and the module binds
    :meth:`module_getattr` as its PEP 562 ``__getattr__``.  That read
    costs ~20x a module-global load, too hot for a branch taken per
    event and per packet, so while *no* context in the process has a
    value installed a real ``module.sink = None`` attribute shadows
    ``__getattr__``: the first :meth:`install` anywhere unbinds it, the
    last :meth:`uninstall` rebinds it.  Readers need no lock: a context
    whose slot is empty reads ``None`` on either path.  Never assign
    the attribute directly (blitzlint P1 flags it).
    """

    def __init__(
        self,
        namespace: Dict[str, Any],
        attr: str,
        error: Type[Exception],
        nested_message: str,
    ) -> None:
        self._namespace = namespace
        self._attr = attr
        self._error = error
        self._nested_message = nested_message
        self._var: ContextVar[Optional[T]] = ContextVar(
            f"{namespace['__name__']}.{attr}", default=None
        )
        #: Contexts with a value installed, process-wide.
        self._installs = 0
        self._lock = threading.Lock()
        namespace[attr] = None

    def module_getattr(self, name: str) -> Optional[T]:
        """The module's ``__getattr__``: serves the attribute per context."""
        if name == self._attr:
            return self._var.get()
        raise AttributeError(
            f"module {self._namespace['__name__']!r} has no attribute {name!r}"
        )

    def current(self) -> Optional[T]:
        """The value installed in the *current* context, or ``None``."""
        return self._var.get()

    def enabled(self) -> bool:
        """True when a value is installed in this context."""
        return self._var.get() is not None

    def install(self, value: T) -> T:
        """Install ``value`` in this context; raise if one already is."""
        if self._var.get() is not None:
            raise self._error(self._nested_message)
        self._var.set(value)
        with self._lock:
            self._installs += 1
            if self._installs == 1:
                self._namespace.pop(self._attr, None)
        return value

    def uninstall(self) -> Optional[T]:
        """Remove this context's value (if any) and return it."""
        removed = self._var.get()
        if removed is None:
            return None
        self._var.set(None)
        with self._lock:
            self._installs -= 1
            if self._installs == 0:
                self._namespace[self._attr] = None
        return removed

    @contextmanager
    def contextvar_only(self) -> Iterator[None]:
        """Benchmark-only: force every read through the ContextVar.

        Unbinds the fast-path attribute — the path all reads take while
        *any* context has a value installed — so a benchmark can price
        it without holding a value installed elsewhere.  On exit the
        attribute is rebound iff nothing is installed.  Single-threaded
        benchmarks only.
        """
        self._namespace.pop(self._attr, None)
        try:
            yield
        finally:
            with self._lock:
                if self._installs == 0:
                    self._namespace[self._attr] = None


_SLOT: ScopedSlot[ObsSink] = ScopedSlot(
    globals(),
    "sink",
    ObsError,
    "an observability sink is already installed in this context; "
    "uninstall it first (nesting sinks would double-count instruments)",
)

#: This context's sink, or ``None`` when observability is off here.
sink: Optional[ObsSink]

__getattr__ = _SLOT.module_getattr
current = _SLOT.current
enabled = _SLOT.enabled
install = _SLOT.install
uninstall = _SLOT.uninstall
_contextvar_only = _SLOT.contextvar_only


@contextmanager
def observing(
    session: Optional[Observation] = None,
) -> Iterator[Observation]:
    """Install a collecting :class:`Observation` for the ``with`` body.

    >>> from repro.obs.runtime import observing
    >>> with observing() as session:
    ...     pass  # run the simulation here
    >>> session.profile.events_total
    0
    """
    active = session if session is not None else Observation()
    install(active)
    try:
        yield active
    finally:
        uninstall()
