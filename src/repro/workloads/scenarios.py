"""WL-Par / WL-Dep scenario builders (Fig. 14).

In **Workload-Parallel** every accelerator runs its task concurrently
with no dependencies; in **Workload-Dependent** tasks form a DAG so only
a subset of tiles is active at any time, which is why the dependent
workloads fit under half the power budget (Section VI-A).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.workloads.dag import DagError, Task, TaskGraph


def build_parallel(specs: Sequence[Tuple[str, str, int]]) -> TaskGraph:
    """Independent tasks, one per spec ``(name, acc_class, work)``."""
    return TaskGraph(
        Task(name=n, acc_class=c, work_cycles=w) for n, c, w in specs
    )


def chain(specs: Sequence[Tuple[str, str, int]]) -> TaskGraph:
    """A linear pipeline: each task depends on the previous one."""
    tasks: List[Task] = []
    prev = None
    for n, c, w in specs:
        deps = (prev,) if prev else ()
        tasks.append(Task(name=n, acc_class=c, work_cycles=w, deps=deps))
        prev = n
    return TaskGraph(tasks)


def diamond(
    source: Tuple[str, str, int],
    middles: Sequence[Tuple[str, str, int]],
    sink: Tuple[str, str, int],
) -> TaskGraph:
    """Fan-out / fan-in: source -> middles (parallel) -> sink."""
    if not middles:
        raise DagError("diamond needs at least one middle task")
    s_name, s_class, s_work = source
    tasks = [Task(name=s_name, acc_class=s_class, work_cycles=s_work)]
    for n, c, w in middles:
        tasks.append(
            Task(name=n, acc_class=c, work_cycles=w, deps=(s_name,))
        )
    k_name, k_class, k_work = sink
    tasks.append(
        Task(
            name=k_name,
            acc_class=k_class,
            work_cycles=k_work,
            deps=tuple(n for n, _, _ in middles),
        )
    )
    return TaskGraph(tasks)


def pipeline_frames(graph: TaskGraph, frames: int) -> TaskGraph:
    """Unroll ``frames`` iterations *without* inter-frame barriers.

    Each frame keeps its internal dependencies but is otherwise
    independent, so successive frames flow through the accelerator
    pipeline concurrently (software pipelining); the per-tile task
    queues serialize same-stage work naturally.  This is the streaming
    regime of the paper's applications — one frame per sensor period,
    several frames in flight.
    """
    if frames < 1:
        raise DagError(f"frames must be >= 1, got {frames}")
    if frames == 1:
        return graph
    tasks: List[Task] = []
    for frame in range(frames):
        suffix = f"@f{frame}"
        for name, task in graph.tasks.items():
            tasks.append(
                Task(
                    name=name + suffix,
                    acc_class=task.acc_class,
                    work_cycles=task.work_cycles,
                    deps=tuple(d + suffix for d in task.deps),
                    tile_hint=task.tile_hint,
                )
            )
    return TaskGraph(tasks)


def class_census(graph: TaskGraph) -> Dict[str, int]:
    """Task count per accelerator class — used to size tile bindings."""
    census: Dict[str, int] = {}
    for task in graph.tasks.values():
        census[task.acc_class] = census.get(task.acc_class, 0) + 1
    return census
