"""BlitzCoin reproduction: fully decentralized hardware power management
for accelerator-rich SoCs (ISCA 2024), as a behavioral Python library.

The public surface is organized by subsystem; the most common entry
points are re-exported here:

>>> from repro import Soc, PMKind, WorkloadExecutor, build_pm, soc_3x3
>>> from repro.workloads import autonomous_vehicle_parallel
>>> soc = Soc(soc_3x3())
>>> pm = build_pm(PMKind.BLITZCOIN, soc, budget_mw=120.0)
>>> result = WorkloadExecutor(soc, autonomous_vehicle_parallel(), pm).run()

Every package re-exports lazily (:func:`lazy_exports`): importing
``repro`` or one submodule imports none of its siblings, so a process
that runs one simulation loads only the layers that simulation uses.
"""

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__version__ = "1.0.0"


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for a package whose
    re-exports import on first access (PEP 562).

    ``exports`` maps each submodule, named relative to ``package``, to
    the names the package re-exports from it; a submodule mapped to no
    names is exported itself.  A resolved name is bound on the package,
    so every later read is a plain attribute load.
    """
    source: Dict[str, Tuple[str, str]] = {}  # name -> (module, attribute)
    for module, names in exports.items():
        path = f"{package}.{module}"
        if not names:
            source[module] = (path, "")
        for name in names:
            source[name] = (path, name)

    def __getattr__(name: str) -> Any:
        try:
            module, attr = source[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = importlib.import_module(module)
        if attr:
            value = getattr(value, attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(source))

    return sorted(source), __getattr__, __dir__


__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "core.config": ["BlitzCoinConfig"],
        "core.engine": ["CoinExchangeEngine"],
        "soc.executor": ["SocRunResult", "WorkloadExecutor"],
        "soc.pm": ["PMKind", "build_pm"],
        "soc.presets": ["soc_3x3", "soc_4x4", "soc_6x6_chip"],
        "soc.soc": ["Soc"],
    },
)
__all__ += ["__version__"]
