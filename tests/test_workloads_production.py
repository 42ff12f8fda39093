"""Production-shaped workload synthesis: diurnal multi-tenant arrivals,
bursty phase traces, and load-correlated fault plans.

Every generator here is a pure function of its arguments — the fuzzer
replays these traces, so determinism (same args, byte-identical trace)
is itself a tested contract, alongside the statistical shapes the
module exists to produce (diurnality, burstiness, peak-clustered
faults).
"""

import pytest

from repro.workloads.production import (
    Arrival,
    ArrivalTrace,
    ProductionError,
    bursty_phase_trace,
    correlated_fault_plan,
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


class TestBurstyPhaseTrace:
    def test_deterministic_and_valid(self):
        a = bursty_phase_trace(6, 400_000, seed=2)
        b = bursty_phase_trace(6, 400_000, seed=2)
        assert a == b
        assert a.n_tiles == 6
        for when, tile, active in a.events:
            assert 0 <= when < 400_000
            assert 0 <= tile < 6
            assert isinstance(active, bool)

    def test_events_are_sorted(self):
        trace = bursty_phase_trace(4, 600_000, seed=9)
        assert list(trace.events) == sorted(trace.events)

    def test_bursts_are_denser_than_the_mean(self):
        """Activity flapping clusters: per-tile inter-event gaps are
        heavy-tailed (median flap-sized, mean dominated by the long
        silences) — the shape that stresses exchange back-off."""
        trace = bursty_phase_trace(
            8, 2_000_000, seed=4,
            burst_cycles=30_000.0, gap_cycles=400_000.0,
            flap_cycles=2_000.0,
        )
        gaps = []
        last = {}
        for when, tile, _active in trace.events:
            if tile in last:
                gaps.append(when - last[tile])
            last[tile] = when
        assert len(gaps) > 20
        gaps.sort()
        median = gaps[len(gaps) // 2]
        mean = sum(gaps) / len(gaps)
        assert mean > 4 * median

    def test_bad_parameters_rejected(self):
        with pytest.raises(ProductionError, match="n_tiles"):
            bursty_phase_trace(0, 1_000, seed=0)
        with pytest.raises(ProductionError, match="gap_cycles"):
            bursty_phase_trace(1, 1_000, seed=0, gap_cycles=0.0)


class TestCorrelatedFaultPlan:
    def busy_trace(self):
        # all load in the first eighth of the horizon
        return trace_of(
            [req(c, tenant=0) for c in range(0, 12_000, 400)],
            horizon=96_000, n_tenants=1,
        )

    def test_deterministic(self):
        t = self.busy_trace()
        a = correlated_fault_plan(t, 9, seed=3)
        assert a == correlated_fault_plan(t, 9, seed=3)

    def test_null_trace_yields_null_plan(self):
        plan = correlated_fault_plan(
            trace_of([], horizon=50_000), 9, seed=3
        )
        assert plan.is_null

    def test_kills_are_paired_with_revives(self):
        plan = correlated_fault_plan(
            self.busy_trace(), 9, seed=1,
            kill_fraction=1.0, outage_cycles=5_000,
        )
        kills = [e for e in plan.tile_events if e.action == "kill"]
        revives = [e for e in plan.tile_events if e.action == "revive"]
        assert kills, "fraction 1.0 over a busy window must kill"
        assert len(kills) == len(revives)
        for k in kills:
            assert any(
                r.tile == k.tile and r.cycle == k.cycle + 5_000
                for r in revives
            )

    def test_faults_cluster_at_the_peak(self):
        """With load confined to the first window, every fault lands
        there — correlation, not uniform scatter."""
        plan = correlated_fault_plan(
            self.busy_trace(), 9, seed=2,
            kill_fraction=1.0, coin_loss_fraction=1.0, n_windows=8,
        )
        window_span = 96_000 // 8
        originating = [
            e.cycle for e in plan.tile_events if e.action == "kill"
        ] + [e.cycle for e in plan.coin_loss_events]
        assert originating
        assert all(c < window_span for c in originating)

    def test_bad_parameters_rejected(self):
        t = self.busy_trace()
        with pytest.raises(ProductionError, match="kill_fraction"):
            correlated_fault_plan(t, 9, seed=0, kill_fraction=1.5)
        with pytest.raises(ProductionError, match="outage_cycles"):
            correlated_fault_plan(t, 9, seed=0, outage_cycles=0)
        with pytest.raises(ProductionError, match="n_tiles"):
            correlated_fault_plan(t, 0, seed=0)
