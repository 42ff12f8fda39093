"""Production-shaped workload synthesis: diurnal multi-tenant arrivals.

The generator is a pure function of its arguments — the fuzzer
replays its traces, so determinism (same args, byte-identical trace)
is itself a tested contract, alongside the statistical shape the
module exists to produce (diurnality).
"""

import pytest

from repro.workloads.production import (
    Arrival,
    ArrivalTrace,
    ProductionError,
    diurnal_arrival_trace,
)


def trace_of(arrivals, horizon=100_000, n_tenants=3):
    return ArrivalTrace(
        arrivals=tuple(arrivals),
        horizon_cycles=horizon,
        n_tenants=n_tenants,
    )


def req(cycle, tenant=0, acc="FFT", work=10_000):
    return Arrival(
        cycle=cycle, tenant=tenant, acc_class=acc, work_cycles=work
    )


class TestArrivalValidation:
    def test_negative_cycle_rejected(self):
        with pytest.raises(ProductionError, match="cycle"):
            req(-1)

    def test_zero_work_rejected(self):
        with pytest.raises(ProductionError, match="work_cycles"):
            req(0, work=0)

    def test_empty_class_rejected(self):
        with pytest.raises(ProductionError, match="acc_class"):
            req(0, acc="")

    def test_arrival_beyond_horizon_rejected(self):
        with pytest.raises(ProductionError, match="beyond horizon"):
            trace_of([req(100_000)])

    def test_unknown_tenant_rejected(self):
        with pytest.raises(ProductionError, match="tenant"):
            trace_of([req(0, tenant=3)], n_tenants=3)

    def test_arrivals_are_canonically_sorted(self):
        a, b = req(500, tenant=1), req(20, tenant=0)
        assert trace_of([a, b]).arrivals == (b, a)
        assert trace_of([a, b]) == trace_of([b, a])


class TestArrivalTraceStatistics:
    def test_window_counts_partition_the_horizon(self):
        trace = trace_of([req(0), req(49_999), req(50_000), req(99_999)])
        assert trace.window_counts(2) == [2, 2]
        assert sum(trace.window_counts(7)) == 4

    def test_peak_to_mean_of_uniform_load_is_one(self):
        trace = trace_of([req(c, tenant=0) for c in range(0, 100_000, 25_000)])
        assert trace.peak_to_mean(4) == 1.0

    def test_peak_to_mean_of_empty_trace_is_zero(self):
        assert trace_of([]).peak_to_mean() == 0.0


class TestToTaskGraph:
    def test_dependent_mode_chains_each_tenant(self):
        trace = trace_of(
            [req(0, tenant=0), req(10, tenant=1), req(20, tenant=0)]
        )
        graph = trace.to_taskgraph(dependent=True)
        names = graph.topological_order()
        assert len(names) == 3
        # tenant 0's second request depends on its first; tenant 1's
        # lone request is a root (tenants are independent).
        deps = {n: graph[n].deps for n in names}
        roots = [n for n, d in deps.items() if not d]
        assert len(roots) == 2
        (chained,) = [n for n, d in deps.items() if d]
        assert deps[chained] == ("q0r0",)

    def test_independent_mode_has_no_edges(self):
        trace = trace_of([req(0), req(10), req(20)])
        graph = trace.to_taskgraph(dependent=False)
        assert all(not graph[n].deps for n in graph.topological_order())

    def test_empty_trace_cannot_build_a_graph(self):
        with pytest.raises(ProductionError, match="0 arrivals"):
            trace_of([]).to_taskgraph()


class TestDiurnalArrivalTrace:
    def test_deterministic(self):
        a = diurnal_arrival_trace(3, 200_000, seed=7)
        b = diurnal_arrival_trace(3, 200_000, seed=7)
        assert a == b

    def test_seed_changes_the_trace(self):
        a = diurnal_arrival_trace(3, 200_000, seed=7)
        b = diurnal_arrival_trace(3, 200_000, seed=8)
        assert a != b

    def test_respects_bounds(self):
        trace = diurnal_arrival_trace(
            4, 150_000, seed=3, mean_arrivals=80,
            work_range=(5_000, 9_000),
        )
        assert trace.n_tenants == 4
        for a in trace.arrivals:
            assert 0 <= a.cycle < 150_000
            assert 0 <= a.tenant < 4
            assert 5_000 <= a.work_cycles <= 9_000
            assert a.acc_class in ("FFT", "Viterbi", "NVDLA")

    def test_mean_arrivals_is_roughly_hit(self):
        trace = diurnal_arrival_trace(
            4, 400_000, seed=1, mean_arrivals=200
        )
        assert 120 <= len(trace.arrivals) <= 300

    def test_deep_trough_is_diurnal(self):
        """A near-zero trough must show clear peak-to-mean contrast."""
        trace = diurnal_arrival_trace(
            1, 600_000, seed=5, mean_arrivals=400, trough_ratio=0.05
        )
        assert trace.peak_to_mean(12) > 1.3

    def test_zero_mean_arrivals_is_an_empty_trace(self):
        trace = diurnal_arrival_trace(2, 10_000, seed=0, mean_arrivals=0)
        assert trace.arrivals == ()

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(n_tenants=0), "tenant"),
            (dict(horizon_cycles=0), "horizon"),
            (dict(mean_arrivals=-1), "mean_arrivals"),
            (dict(acc_classes=()), "accelerator class"),
            (dict(trough_ratio=0.0), "trough_ratio"),
            (dict(work_range=(0, 5)), "work range"),
            (dict(period_cycles=0), "period"),
        ],
    )
    def test_bad_parameters_rejected(self, kwargs, match):
        base = dict(n_tenants=2, horizon_cycles=10_000, seed=0)
        base.update(kwargs)
        n_tenants = base.pop("n_tenants")
        horizon = base.pop("horizon_cycles")
        with pytest.raises(ProductionError, match=match):
            diurnal_arrival_trace(n_tenants, horizon, **base)
