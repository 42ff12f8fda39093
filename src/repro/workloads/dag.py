"""Task graphs: directed acyclic graphs of accelerator invocations.

Work is measured in *accelerator cycles*: a task of ``work_cycles`` W
running at tile frequency F takes ``W / F`` seconds, so power management
directly modulates task duration — the coupling every SoC-level
experiment in the paper exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple


class DagError(ValueError):
    """Raised for malformed task graphs."""


@dataclass(frozen=True)
class Task:
    """One accelerator invocation."""

    name: str
    acc_class: str  # accelerator class that can run it (e.g. "FFT")
    work_cycles: int  # accelerator cycles at the task's clock
    deps: Tuple[str, ...] = ()
    tile_hint: Optional[int] = None  # pin to a specific tile id

    def __post_init__(self) -> None:
        if not self.name:
            raise DagError("task needs a non-empty name")
        if self.work_cycles <= 0:
            raise DagError(
                f"task {self.name!r}: work must be positive, got {self.work_cycles}"
            )
        if len(set(self.deps)) != len(self.deps):
            raise DagError(f"task {self.name!r}: duplicate dependencies")
        if self.name in self.deps:
            raise DagError(f"task {self.name!r} depends on itself")


class TaskGraph:
    """A validated DAG of tasks."""

    def __init__(self, tasks: Iterable[Task]) -> None:
        self.tasks: Dict[str, Task] = {}
        for task in tasks:
            if task.name in self.tasks:
                raise DagError(f"duplicate task name {task.name!r}")
            self.tasks[task.name] = task
        for task in self.tasks.values():
            for dep in task.deps:
                if dep not in self.tasks:
                    raise DagError(
                        f"task {task.name!r} depends on unknown {dep!r}"
                    )
        self._order = self._toposort()

    # ------------------------------------------------------------ structure
    def _toposort(self) -> List[str]:
        indegree = {name: len(t.deps) for name, t in self.tasks.items()}
        dependents: Dict[str, List[str]] = {name: [] for name in self.tasks}
        for name, task in self.tasks.items():
            for dep in task.deps:
                dependents[dep].append(name)
        ready = sorted(n for n, deg in indegree.items() if deg == 0)
        order: List[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for child in sorted(dependents[name]):
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
            ready.sort()
        if len(order) != len(self.tasks):
            cyclic = set(self.tasks) - set(order)
            raise DagError(f"dependency cycle among {sorted(cyclic)}")
        return order

    def topological_order(self) -> List[str]:
        """Deterministic topological ordering of task names."""
        return list(self._order)

    def dependents_of(self, name: str) -> List[str]:
        """Tasks that directly depend on ``name``."""
        if name not in self.tasks:
            raise DagError(f"unknown task {name!r}")
        return sorted(
            t.name for t in self.tasks.values() if name in t.deps
        )

    def roots(self) -> List[str]:
        """Tasks with no dependencies (ready at time zero)."""
        return sorted(n for n, t in self.tasks.items() if not t.deps)

    def is_parallel(self) -> bool:
        """True when no task has dependencies (the WL-Par shape)."""
        return all(not t.deps for t in self.tasks.values())

    # ------------------------------------------------------------- analysis
    def acc_classes(self) -> Set[str]:
        """Distinct accelerator classes the graph needs."""
        return {t.acc_class for t in self.tasks.values()}

    def total_work(self) -> int:
        """Sum of all tasks' work (accelerator cycles)."""
        return sum(t.work_cycles for t in self.tasks.values())

    def max_concurrency(self) -> int:
        """Upper bound on concurrently runnable tasks (antichain width
        via greedy level assignment — exact for the layered graphs used
        in the paper's scenarios)."""
        level: Dict[str, int] = {}
        for name in self._order:
            task = self.tasks[name]
            level[name] = 1 + max((level[d] for d in task.deps), default=-1)
        counts: Dict[int, int] = {}
        for lv in level.values():
            counts[lv] = counts.get(lv, 0) + 1
        return max(counts.values(), default=0)

    def __len__(self) -> int:
        return len(self.tasks)

    def __contains__(self, name: str) -> bool:
        return name in self.tasks

    def __getitem__(self, name: str) -> Task:
        return self.tasks[name]
