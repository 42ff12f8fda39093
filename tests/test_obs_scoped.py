"""Concurrency battery for the scoped observability runtime.

``repro.obs.runtime`` serves ``runtime.sink`` from a ContextVar, so
every thread (and every asyncio task) resolves its own sink.  These
tests pin the properties the parallel serve lanes depend on:

* two threads running simulations under their own scoped sinks must
  not cross-contaminate counters, spans, profiles, or monitor alerts
  — each session collects exactly what a solo run collects;
* a fresh thread (or any context with nothing installed) sees ``None``
  and runs uninstrumented, even while other threads observe;
* ContextVar state *persists* on reused pool threads, which is why
  ``uninstall()`` in a ``finally`` is load-bearing for lane workers;
* ``observing()`` nesting semantics are pinned: nested installs raise
  ``ObsError`` and leave the outer sink in place, and the ``finally``
  always clears whatever the block left installed;
* a Hypothesis property drives arbitrary step-by-step interleavings of
  two observing threads through an event handshake and asserts perfect
  attribution for every schedule;
* the flag-off fast path of both scoped slots (``runtime.sink`` and
  ``repro.faults.runtime.injector``) stays a bound ``None`` attribute
  whenever nothing is installed anywhere in the process, including
  after many threads churn installs under forced thread switching.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan, FaultPlanError
from repro.faults import runtime as faults_runtime
from repro.obs import ObsError, ObsSink, Observation, runtime
from repro.obs.monitor import Monitor, MonitorSet
from repro.obs.runtime import current, enabled, install, observing, uninstall
from tests.conftest import build_engine_rig


def _observed_engine_run(d: int, seed: int, cycles: int) -> Observation:
    """One engine sim under its own scoped session; returns the session."""
    with observing() as session:
        rig = build_engine_rig(d, seed=seed, start=True)
        rig.engine.set_max(0, 2)  # an imbalance to trade away
        rig.sim.run(until=cycles)
    return session


def _fingerprint(session: Observation):
    return (
        session.registry.value("engine.exchanges_initiated"),
        session.registry.value("noc.packets", kind="coin_status"),
        len(session.trace.spans),
        session.profile.events_total,
    )


class TestThreadIsolation:
    def test_two_threads_collect_exactly_their_own_run(self):
        # Reference: what each run collects when it is alone.
        solo_a = _fingerprint(_observed_engine_run(3, 7, 30_000))
        solo_b = _fingerprint(_observed_engine_run(4, 11, 30_000))
        assert solo_a != solo_b  # distinct configs → distinct footprints

        results = {}
        barrier = threading.Barrier(2)

        def worker(key, d, seed):
            barrier.wait()  # force genuine overlap
            results[key] = _fingerprint(_observed_engine_run(d, seed, 30_000))

        threads = [
            threading.Thread(target=worker, args=("a", 3, 7)),
            threading.Thread(target=worker, args=("b", 4, 11)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Scoped sinks: the concurrent sessions are bit-identical to
        # the solo ones — no counter, span, or profile event leaked
        # across threads in either direction.
        assert results["a"] == solo_a
        assert results["b"] == solo_b

    def test_fresh_thread_sees_none_while_main_observes(self):
        seen = {}

        def probe():
            seen["sink"] = runtime.sink
            seen["enabled"] = enabled()

        with observing():
            t = threading.Thread(target=probe)
            t.start()
            t.join()
        assert seen["sink"] is None
        assert seen["enabled"] is False

    def test_thread_install_invisible_to_main(self):
        installed = threading.Event()
        release = threading.Event()

        def worker():
            install(ObsSink())
            installed.set()
            release.wait(5)
            uninstall()

        t = threading.Thread(target=worker)
        t.start()
        assert installed.wait(5)
        try:
            assert runtime.sink is None  # the worker's sink is its own
            assert current() is None
        finally:
            release.set()
            t.join()

    def test_pool_threads_persist_context_across_tasks(self):
        # ThreadPoolExecutor reuses threads and ContextVar state set in
        # a thread sticks to it: a lane worker that skips uninstall()
        # poisons the next job on that thread.  This is the documented
        # reason uninstall-in-finally is load-bearing.
        with ThreadPoolExecutor(max_workers=1) as pool:
            leaked = ObsSink()
            pool.submit(install, leaked).result()
            assert pool.submit(current).result() is leaked  # persisted!
            assert pool.submit(uninstall).result() is leaked
            assert pool.submit(current).result() is None

    def test_executor_lanes_scope_independent_sinks(self):
        # The serve lane-worker discipline, distilled: N pool threads,
        # each job installs its own session and uninstalls in finally.
        def job(i):
            session = Observation(label=f"lane-{i}")
            install(session)
            try:
                for t in range(i + 1):
                    runtime.sink.inc("job.steps", t)
            finally:
                uninstall()
            return i, session

        with ThreadPoolExecutor(max_workers=4) as pool:
            for i, session in pool.map(job, range(16)):
                assert session.registry.value("job.steps") == i + 1
            assert all(
                sink is None
                for sink in [pool.submit(current).result() for _ in range(4)]
            )


class _TagMonitor(Monitor):
    """Alerts on every ``tagged`` event, recording the event's tag."""

    name = "tag"

    def on_event(self, name, time, cat, track, args):
        if name == "tagged":
            self.emit("info", time, "tagged", tag=args["tag"])


class TestAlertIsolation:
    def test_monitor_alerts_stay_with_their_thread(self):
        outcome = {}
        barrier = threading.Barrier(2)

        def worker(tag, events):
            monitor = _TagMonitor()
            sink = MonitorSet([monitor], Observation(label=tag))
            barrier.wait()
            install(sink)
            try:
                for t in range(events):
                    runtime.sink.event("tagged", t, args={"tag": tag})
                sink.finish()
            finally:
                uninstall()
            outcome[tag] = monitor.alerts

        threads = [
            threading.Thread(target=worker, args=("left", 5)),
            threading.Thread(target=worker, args=("right", 9)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(outcome["left"]) == 5
        assert len(outcome["right"]) == 9
        assert {a.data["tag"] for a in outcome["left"]} == {"left"}
        assert {a.data["tag"] for a in outcome["right"]} == {"right"}


class TestFaultInjectorScoping:
    def test_concurrent_injecting_scopes_per_thread(self):
        # The fault injector rides the same scoped-runtime pattern as
        # the obs sink: two lanes may each install their own injector.
        # (Process-wide state here used to fail every concurrent
        # fault-injected scenario with "already installed".)
        from repro.faults.runtime import injecting

        barrier = threading.Barrier(2)
        seen = {}

        def worker(tag):
            barrier.wait()
            with injecting(FaultPlan.uniform(drop=0.1)) as inj:
                seen[tag] = (inj, faults_runtime.injector)
            seen[tag + "-after"] = faults_runtime.injector

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen["a"][0] is seen["a"][1]
        assert seen["b"][0] is seen["b"][1]
        assert seen["a"][0] is not seen["b"][0]
        assert seen["a-after"] is None and seen["b-after"] is None
        assert faults_runtime.injector is None


class TestObservingNesting:
    def test_nested_observing_raises_and_preserves_outer(self):
        with observing() as outer:
            with pytest.raises(ObsError):
                with observing():
                    pass  # pragma: no cover - nested install must raise
            assert runtime.sink is outer  # outer sink survived the raise
        assert runtime.sink is None

    def test_nested_install_raises_and_preserves_outer(self):
        with observing() as outer:
            with pytest.raises(ObsError):
                install(ObsSink())
            assert runtime.sink is outer
        assert runtime.sink is None

    def test_observing_finally_clears_replacement_sink(self):
        # Swapping sinks mid-block is legal (uninstall + install); the
        # block's finally still leaves the context clean.
        with observing():
            uninstall()
            replacement = install(ObsSink())
            assert runtime.sink is replacement
        assert runtime.sink is None

    def test_sequential_blocks_are_independent(self):
        with observing() as first:
            first.inc("x", 0)
        with observing() as second:
            pass
        assert first is not second
        assert first.registry.value("x") == 1
        assert second.registry.value("x") == 0


@pytest.mark.parametrize(
    "module, attr, make_value, nested_error, force_contextvar",
    [
        (runtime, "sink", ObsSink, ObsError, runtime._contextvar_only),
        (
            faults_runtime,
            "injector",
            lambda: FaultInjector(FaultPlan()),
            FaultPlanError,
            faults_runtime._SLOT.contextvar_only,
        ),
    ],
    ids=["obs", "faults"],
)
def test_fast_path_attribute_tracks_installs(
    module, attr, make_value, nested_error, force_contextvar
):
    """The flag-off read is one module-dict load only while it is bound.

    Losing the ``None`` attribute would pass every behavioral test
    while each read fell through to the ContextVar (~20x slower), so
    the attribute itself is pinned across installs in other threads,
    failed nested installs, and the benchmark-only forced path.
    """
    assert attr in vars(module) and vars(module)[attr] is None

    # Nothing installed: leaving the forced path rebinds the attribute.
    with force_contextvar():
        assert attr not in vars(module)
        assert getattr(module, attr) is None
    assert attr in vars(module)

    installed, release = threading.Event(), threading.Event()

    def holder():
        module.install(make_value())
        installed.set()
        release.wait(5)
        module.uninstall()

    thread = threading.Thread(target=holder)
    thread.start()
    try:
        assert installed.wait(5)
        assert attr not in vars(module)  # reads route per context...
        assert getattr(module, attr) is None  # ...and main's is empty
        with force_contextvar():
            pass
        assert attr not in vars(module)  # an install is still live
    finally:
        release.set()
        thread.join()
    assert attr in vars(module) and vars(module)[attr] is None

    outer = module.install(make_value())
    try:
        with pytest.raises(nested_error, match="already installed"):
            module.install(make_value())
        assert attr not in vars(module)
        assert getattr(module, attr) is outer
    finally:
        module.uninstall()
    # The failed nested install left the install count balanced.
    assert attr in vars(module) and vars(module)[attr] is None


@pytest.mark.parametrize(
    "module, attr, make_value",
    [
        (runtime, "sink", ObsSink),
        (faults_runtime, "injector", lambda: FaultInjector(FaultPlan())),
    ],
    ids=["obs", "faults"],
)
def test_install_count_survives_thread_churn(module, attr, make_value):
    """More threads than cores install/uninstall under forced switching.

    A lost update to the process-wide install count would rebind the
    ``None`` attribute while some thread still has a value installed
    (that thread would then read ``None``), or leave it unbound after
    every thread is done.
    """
    errors = []

    def churn():
        try:
            for _ in range(300):
                value = module.install(make_value())
                if getattr(module, attr) is not value:
                    errors.append("read another context's value")
                module.uninstall()
        except Exception as exc:  # surfaced by the assert below
            errors.append(repr(exc))

    threads = [threading.Thread(target=churn) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert attr in vars(module) and vars(module)[attr] is None


class _SteppedObserver(threading.Thread):
    """A thread that installs its own session and incs once per ``go``."""

    def __init__(self, tag: str, steps: int) -> None:
        super().__init__(name=f"obs-{tag}")
        self.tag = tag
        self.steps = steps
        self.session = Observation(label=tag)
        self.go = threading.Semaphore(0)
        self.ack = threading.Semaphore(0)

    def run(self) -> None:
        install(self.session)
        try:
            for t in range(self.steps):
                self.go.acquire()
                runtime.sink.inc("steps", t, tag=self.tag)
                self.ack.release()
        finally:
            uninstall()


@given(
    schedule=st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=24)
)
@settings(max_examples=20, deadline=None)
def test_interleaved_threads_attribute_every_step(schedule):
    """Any interleaving of two observing threads attributes perfectly.

    Hypothesis picks the schedule; a semaphore handshake makes the two
    threads take their increments in exactly that order.  Whatever the
    interleaving, each session ends with precisely its own step count
    under its own tag — the ContextVar scoping leaves no schedule in
    which an increment lands in the other thread's registry.
    """
    counts = {"a": schedule.count("a"), "b": schedule.count("b")}
    workers = {
        tag: _SteppedObserver(tag, steps) for tag, steps in counts.items()
    }
    for worker in workers.values():
        worker.start()
    for tag in schedule:  # drive the exact interleaving, step by step
        workers[tag].go.release()
        assert workers[tag].ack.acquire(timeout=10)
    for worker in workers.values():
        worker.join(timeout=10)
        assert not worker.is_alive()
    for tag, worker in workers.items():
        own = worker.session.registry.value("steps", tag=tag)
        other = "b" if tag == "a" else "a"
        assert own == counts[tag]
        assert worker.session.registry.value("steps", tag=other) == 0
