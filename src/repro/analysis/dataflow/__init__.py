"""Dataflow static-analysis core: CFGs, a worklist solver, lattices.

This package is the machinery under blitzlint's v2 rule families
(D2 rng-taint, U2 units-flow, C2 coin-flow, P1 parallel-safety in
``repro.analysis.passes``); it knows nothing about any specific rule.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cfg": [
            "CFG",
            "BasicBlock",
            "FunctionUnit",
            "build_cfg",
            "functions_in",
            "iter_acyclic_paths",
        ],
        "lattice": ["Taint", "TaintEnv", "UnitEnv"],
        "solver": ["FixpointDiverged", "solve_forward"],
    },
)
