"""Tests for task graphs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.dag import DagError, Task, TaskGraph
from repro.workloads.synthetic import random_layered_dag


class TestTask:
    def test_valid_task(self):
        t = Task("a", "FFT", 1000)
        assert t.deps == ()

    def test_empty_name_rejected(self):
        with pytest.raises(DagError):
            Task("", "FFT", 1000)

    def test_nonpositive_work_rejected(self):
        with pytest.raises(DagError):
            Task("a", "FFT", 0)

    def test_self_dependency_rejected(self):
        with pytest.raises(DagError):
            Task("a", "FFT", 10, deps=("a",))

    def test_duplicate_deps_rejected(self):
        with pytest.raises(DagError):
            Task("a", "FFT", 10, deps=("b", "b"))


class TestTaskGraph:
    def _diamond(self):
        return TaskGraph(
            [
                Task("src", "FFT", 10),
                Task("m1", "FFT", 10, deps=("src",)),
                Task("m2", "FFT", 10, deps=("src",)),
                Task("sink", "FFT", 10, deps=("m1", "m2")),
            ]
        )

    def test_topological_order_respects_deps(self):
        g = self._diamond()
        order = g.topological_order()
        for name, task in g.tasks.items():
            for dep in task.deps:
                assert order.index(dep) < order.index(name)

    def test_cycle_detected(self):
        with pytest.raises(DagError):
            TaskGraph(
                [
                    Task("a", "FFT", 10, deps=("b",)),
                    Task("b", "FFT", 10, deps=("a",)),
                ]
            )

    def test_unknown_dependency_rejected(self):
        with pytest.raises(DagError):
            TaskGraph([Task("a", "FFT", 10, deps=("ghost",))])

    def test_duplicate_names_rejected(self):
        with pytest.raises(DagError):
            TaskGraph([Task("a", "FFT", 10), Task("a", "FFT", 20)])

    def test_roots_and_dependents(self):
        g = self._diamond()
        assert g.roots() == ["src"]
        assert g.dependents_of("src") == ["m1", "m2"]
        assert g.dependents_of("sink") == []

    def test_is_parallel(self):
        g = TaskGraph([Task("a", "FFT", 10), Task("b", "FFT", 10)])
        assert g.is_parallel()
        assert not self._diamond().is_parallel()

    def test_total_work(self):
        assert self._diamond().total_work() == 40

    def test_max_concurrency_of_diamond(self):
        assert self._diamond().max_concurrency() == 2

    def test_container_protocol(self):
        g = self._diamond()
        assert len(g) == 4
        assert "src" in g
        assert g["src"].work_cycles == 10


class TestRandomLayeredDag:
    @given(st.integers(1, 40), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_generated_graphs_are_valid_property(self, n_tasks, seed):
        g = random_layered_dag(n_tasks, ["FFT", "GEMM"], seed)
        assert len(g) == n_tasks
        # TaskGraph construction validates acyclicity; also check layers.
        order = g.topological_order()
        assert len(order) == n_tasks

    def test_deterministic_by_seed(self):
        a = random_layered_dag(20, ["FFT"], seed=5)
        b = random_layered_dag(20, ["FFT"], seed=5)
        assert {n: t.deps for n, t in a.tasks.items()} == {
            n: t.deps for n, t in b.tasks.items()
        }

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            random_layered_dag(0, ["FFT"], 1)
        with pytest.raises(ValueError):
            random_layered_dag(5, [], 1)
