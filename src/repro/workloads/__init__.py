"""Workload models: task DAGs and the paper's two applications.

* :mod:`~repro.workloads.dag` — tasks, dependency graphs, validation.
* :mod:`~repro.workloads.scenarios` — WL-Par / WL-Dep builders (Fig. 14).
* :mod:`~repro.workloads.apps` — the connected-autonomous-vehicle
  (mini-ERA) workload for the 3x3 SoC and the computer-vision workload
  for the 4x4 SoC (Section V-A).
* :mod:`~repro.workloads.synthetic` — random phase/DAG generators for
  the scalability studies.
* :mod:`~repro.workloads.production` — production-shaped load: diurnal
  multi-tenant arrival traces.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "apps": [
            "autonomous_vehicle_dependent",
            "autonomous_vehicle_parallel",
            "computer_vision_dependent",
            "computer_vision_parallel",
        ],
        "dag": ["DagError", "Task", "TaskGraph"],
        "scenarios": ["build_parallel", "chain", "diamond", "pipeline_frames"],
        "production": [
            "Arrival",
            "ArrivalTrace",
            "ProductionError",
            "diurnal_arrival_trace",
        ],
        "synthetic": ["PhaseTrace", "random_layered_dag", "random_phase_trace"],
    },
)
