"""Tests for scenario builders, the paper's applications, and synthesis."""

import pytest

from repro.workloads.apps import (
    autonomous_vehicle_dependent,
    autonomous_vehicle_parallel,
    computer_vision_dependent,
    computer_vision_parallel,
    pm_cluster_workload,
)
from repro.workloads.scenarios import (
    build_parallel,
    chain,
    class_census,
    diamond,
)
from repro.workloads.synthetic import random_phase_trace


class TestScenarioBuilders:
    def test_build_parallel(self):
        g = build_parallel([("a", "FFT", 10), ("b", "GEMM", 20)])
        assert g.is_parallel()
        assert len(g) == 2

    def test_chain_sequences_tasks(self):
        g = chain([("a", "FFT", 10), ("b", "GEMM", 20), ("c", "FFT", 5)])
        assert g["b"].deps == ("a",)
        assert g["c"].deps == ("b",)
        assert g.max_concurrency() == 1

    def test_diamond_shape(self):
        g = diamond(
            ("s", "FFT", 1),
            [("m1", "GEMM", 1), ("m2", "GEMM", 1)],
            ("k", "FFT", 1),
        )
        assert g["k"].deps == ("m1", "m2")
        assert g.max_concurrency() == 2

    def test_diamond_requires_middles(self):
        with pytest.raises(Exception):
            diamond(("s", "FFT", 1), [], ("k", "FFT", 1))

    def test_class_census(self):
        g = build_parallel(
            [("a", "FFT", 1), ("b", "FFT", 1), ("c", "GEMM", 1)]
        )
        assert class_census(g) == {"FFT": 2, "GEMM": 1}


class TestPaperApplications:
    def test_av_parallel_matches_3x3_soc(self):
        g = autonomous_vehicle_parallel()
        assert class_census(g) == {"FFT": 3, "Viterbi": 2, "NVDLA": 1}
        assert g.is_parallel()

    def test_av_dependent_is_a_dag_with_limited_concurrency(self):
        g = autonomous_vehicle_dependent()
        assert not g.is_parallel()
        assert g.max_concurrency() < 6

    def test_cv_parallel_matches_4x4_soc(self):
        g = computer_vision_parallel()
        assert class_census(g) == {"Vision": 4, "Conv2D": 4, "GEMM": 5}

    def test_cv_dependent_streams(self):
        g = computer_vision_dependent()
        assert g["conv0"].deps == ("vis0",)
        assert g["gemm_fuse"].deps == ("gemm0", "gemm1", "gemm2", "gemm3")

    def test_pm_cluster_workload_sizes(self):
        for n in (7, 5, 4, 3):
            assert len(pm_cluster_workload(n)) == n

    def test_pm_cluster_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            pm_cluster_workload(8)
        with pytest.raises(ValueError):
            pm_cluster_workload(0)


class TestPhaseTrace:
    def test_events_sorted_and_in_horizon(self):
        trace = random_phase_trace(8, 10_000, 100_000, seed=1)
        times = [t for t, _, _ in trace.events]
        assert times == sorted(times)
        assert all(0 <= t < 100_000 for t in times)

    def test_mean_interval_shrinks_with_tile_count(self):
        """The paper's T_w / N statistic (Fig. 1)."""
        few = random_phase_trace(4, 20_000, 2_000_000, seed=2)
        many = random_phase_trace(32, 20_000, 2_000_000, seed=2)
        assert many.mean_interval_cycles() < few.mean_interval_cycles() / 3

    def test_deterministic_by_seed(self):
        a = random_phase_trace(4, 10_000, 50_000, seed=9)
        b = random_phase_trace(4, 10_000, 50_000, seed=9)
        assert a.events == b.events

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            random_phase_trace(0, 10_000, 1000, 1)
        with pytest.raises(ValueError):
            random_phase_trace(4, -5, 1000, 1)
        with pytest.raises(ValueError):
            random_phase_trace(4, 100, 1000, 1, duty=1.5)
