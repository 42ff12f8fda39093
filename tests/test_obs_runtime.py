"""Tests for the obs runtime fast flag and the kernel profiling hook."""

import pytest

from repro.obs import (
    ObsError,
    ObsSink,
    Observation,
    install,
    runtime,
    uninstall,
)
from repro.obs.profile import KernelProfile, callback_site
from repro.obs.runtime import enabled, observing
from repro.sim.kernel import Simulator


class TestInstall:
    def test_default_is_disabled(self):
        assert runtime.sink is None
        assert not enabled()

    def test_install_uninstall_round_trip(self):
        sink = ObsSink()
        assert install(sink) is sink
        assert enabled()
        assert uninstall() is sink
        assert not enabled()

    def test_double_install_rejected(self):
        install(ObsSink())
        try:
            with pytest.raises(ObsError):
                install(ObsSink())
        finally:
            uninstall()

    def test_uninstall_when_empty_returns_none(self):
        assert uninstall() is None


class TestObserving:
    def test_scopes_sink_to_with_block(self):
        with observing() as session:
            assert runtime.sink is session
        assert runtime.sink is None

    def test_uninstalls_on_exception(self):
        with pytest.raises(RuntimeError):
            with observing():
                raise RuntimeError("boom")
        assert runtime.sink is None

    def test_accepts_prebuilt_session(self):
        session = Observation(label="mine")
        with observing(session) as active:
            assert active is session


class TestKernelProfiling:
    def test_kernel_reports_events_when_enabled(self):
        sim = Simulator()

        def tick() -> None:
            pass

        with observing() as session:
            sim.schedule(5, tick)
            sim.schedule(9, tick)
            sim.run()
        assert session.profile.events_total == 2
        (site, count), = session.profile.top()
        assert count == 2
        assert site.endswith("tick")

    def test_kernel_silent_when_disabled(self):
        sim = Simulator()
        sim.schedule(1, lambda: None)
        sim.run()  # nothing installed: must not raise or record anywhere
        assert runtime.sink is None


class TestCallbackSite:
    def test_module_and_qualname(self):
        def cb() -> None:
            pass

        site = callback_site(cb)
        assert site == f"{__name__}:TestCallbackSite.test_module_and_qualname.<locals>.cb"

    def test_object_without_qualname(self):
        class Callable0:
            def __call__(self) -> None:
                pass

        assert callback_site(Callable0()).endswith(":Callable0")


class TestProfileTable:
    def test_table_is_ranked_and_shares_sum(self):
        profile = KernelProfile()
        for _ in range(3):
            profile.on_event(0, callback_site)  # any callable works
        lines = profile.table(5)
        assert "100.0%" in lines[1]

    def test_empty_table(self):
        assert KernelProfile().table() == ["(no events profiled)"]
