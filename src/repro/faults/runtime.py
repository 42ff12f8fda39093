"""The scoped fast flag gating every fault-injection point.

Instrumented call sites read one module attribute and branch::

    from repro.faults import runtime as _faults
    ...
    if _faults.injector is not None:
        verdict = _faults.injector.decide(packet)

When no injector is installed (the default) each site costs a single
attribute load plus an ``is None`` test — the simulation executes the
same instruction path as a fault-free build, and results are
bit-identical either way.  An installed injector whose plan carries
zero rates also leaves runs bit-identical: the injector never
schedules, reorders, or mutates anything unless a fault actually fires.

The flag is a :class:`~repro.obs.runtime.ScopedSlot`, the same
mechanism as the observability sink: every thread — and every asyncio
task — resolves its own injector, so two fault-injected scenarios on
two serve lanes each decide from their own plan's RNG stream, and
fault-free runs still read one module-dict load.  Within one context
only one injector may be installed at a time; use :func:`injecting` to
scope one to a ``with`` block.  ContextVar state set inside a thread
persists on that thread (pools reuse threads), so :func:`uninstall` in
a ``finally`` stays load-bearing outside ``injecting``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Union

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultPlanError
from repro.obs.runtime import ScopedSlot

__all__ = [
    "current",
    "enabled",
    "injecting",
    "injector",
    "install",
    "maybe_injecting",
    "uninstall",
]

_SLOT: ScopedSlot[FaultInjector] = ScopedSlot(
    globals(),
    "injector",
    FaultPlanError,
    "a fault injector is already installed; uninstall it first "
    "(nesting injectors would entangle their decision streams)",
)

#: This context's injector, or ``None`` when fault injection is off here.
injector: Optional[FaultInjector]

__getattr__ = _SLOT.module_getattr
current = _SLOT.current
enabled = _SLOT.enabled
install = _SLOT.install
uninstall = _SLOT.uninstall


@contextmanager
def injecting(
    plan_or_injector: Union[FaultPlan, FaultInjector],
) -> Iterator[FaultInjector]:
    """Install a fault injector for the ``with`` body.

    >>> from repro.faults import FaultPlan, injecting
    >>> with injecting(FaultPlan.uniform(drop=0.1)) as inj:
    ...     pass  # run the simulation here
    >>> inj.drops
    0
    """
    if isinstance(plan_or_injector, FaultInjector):
        active = plan_or_injector
    else:
        active = FaultInjector(plan_or_injector)
    install(active)
    try:
        yield active
    finally:
        uninstall()


@contextmanager
def maybe_injecting(
    plan: Optional[FaultPlan],
) -> Iterator[Optional[FaultInjector]]:
    """:func:`injecting` when ``plan`` is given, else a no-op scope.

    Lets runners write one ``with`` statement for both fault-free and
    fault-injected trials.
    """
    if plan is None:
        yield None
        return
    with injecting(plan) as active:
        yield active
