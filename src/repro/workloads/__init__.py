"""Workload models: task DAGs and the paper's two applications.

* :mod:`~repro.workloads.dag` — tasks, dependency graphs, validation.
* :mod:`~repro.workloads.scenarios` — WL-Par / WL-Dep builders (Fig. 14).
* :mod:`~repro.workloads.apps` — the connected-autonomous-vehicle
  (mini-ERA) workload for the 3x3 SoC and the computer-vision workload
  for the 4x4 SoC (Section V-A).
* :mod:`~repro.workloads.synthetic` — random phase/DAG generators for
  the scalability studies.
* :mod:`~repro.workloads.production` — production-shaped load: diurnal
  multi-tenant arrival traces, bursty phases, load-correlated faults.
"""

from repro.workloads.apps import (
    autonomous_vehicle_dependent,
    autonomous_vehicle_parallel,
    computer_vision_dependent,
    computer_vision_parallel,
)
from repro.workloads.dag import DagError, Task, TaskGraph
from repro.workloads.scenarios import (
    build_parallel,
    chain,
    diamond,
    pipeline_frames,
)
from repro.workloads.production import (
    Arrival,
    ArrivalTrace,
    ProductionError,
    bursty_phase_trace,
    correlated_fault_plan,
    diurnal_arrival_trace,
)
from repro.workloads.synthetic import (
    PhaseTrace,
    random_layered_dag,
    random_phase_trace,
)

__all__ = [
    "Arrival",
    "ArrivalTrace",
    "DagError",
    "PhaseTrace",
    "Task",
    "TaskGraph",
    "autonomous_vehicle_dependent",
    "autonomous_vehicle_parallel",
    "build_parallel",
    "chain",
    "computer_vision_dependent",
    "computer_vision_parallel",
    "diamond",
    "pipeline_frames",
    "ProductionError",
    "bursty_phase_trace",
    "correlated_fault_plan",
    "diurnal_arrival_trace",
    "random_layered_dag",
    "random_phase_trace",
]
