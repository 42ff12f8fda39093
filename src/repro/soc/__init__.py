"""Full-SoC integration: tiles, presets, power managers, workload executor.

This package is the Python analogue of the paper's ESP integration
(Section IV-B): it composes a tile grid over a NoC, attaches a power
manager (BlitzCoin, BC-C, C-RR, or static), runs a task-graph workload,
and records per-tile power traces — everything the SoC-level
evaluations (Figs. 16-20) need.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "executor": ["ExecutorError", "SocRunResult", "WorkloadExecutor"],
        "pm": ["BlitzCoinPM", "CentralizedPM", "PMKind", "StaticPM", "build_pm"],
        "presets": ["soc_3x3", "soc_4x4", "soc_6x6_chip"],
        "soc": ["Soc", "SocError"],
        "tile": ["SocConfig", "TileKind", "TileSpec"],
    },
)
