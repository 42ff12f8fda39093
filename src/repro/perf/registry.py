"""Benchmark registry: declared, discoverable, deterministic benchmarks.

A benchmark is a *declaration* — ``name``, frozen ``params``, an
optional ``setup`` callable, the timed ``run`` callable, and the
``units`` of whatever ``run`` exercises — registered into a process-
wide :class:`BenchmarkRegistry`.  The harness (:mod:`repro.perf.
harness`) is the only component that times anything; a declaration by
itself is inert, import-safe, and side-effect free.

Determinism contract: ``run`` must derive all randomness from the
seeds baked into ``params`` (blitzlint D1 applies to benchmark bodies
the same way it applies to the simulator), so every non-timing output
a benchmark reports — result metrics, observability counters — is
byte-reproducible run over run.  That is what lets the CI determinism
check diff two fresh ``BENCH_*.json`` artifacts modulo timing fields.

The ``core`` and ``serve`` suites live in :mod:`repro.perf.suites`.
The ``figures`` suite (one entry per paper figure, table and claim,
each asserting the shape the paper reports) and the heavyweight
``full`` suite are the ``benchmarks/bench_*.py`` files of the source
checkout, which register through the same :func:`register` decorator
when :func:`load_builtin_suites` imports them.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "BENCH_DIR",
    "Benchmark",
    "BenchmarkRegistry",
    "PerfError",
    "REGISTRY",
    "import_bench_file",
    "load_builtin_suites",
    "register",
]


class PerfError(ValueError):
    """Raised for invalid benchmark declarations or harness misuse."""


#: ``run`` receives the declared params (plus whatever ``setup``
#: returned) as keyword arguments and may return a flat mapping of
#: deterministic result metrics (numbers only).
RunFn = Callable[..., Any]

#: ``setup`` runs once per repetition, *outside* the timed region, and
#: returns extra keyword arguments for ``run`` (or None).
SetupFn = Callable[..., Optional[Mapping[str, Any]]]


@dataclass(frozen=True)
class Benchmark:
    """One declared benchmark.

    ``counters`` names :mod:`repro.obs` counters to snapshot after the
    timed run (deterministic cost proxies: event counts never vary
    with machine speed).  ``profile`` marks the benchmark safe to run
    under the phase-attribution profiler — it must not install its own
    observability sink.
    """

    name: str
    run: RunFn
    units: str = "seconds"
    params: Tuple[Tuple[str, Any], ...] = ()
    setup: Optional[SetupFn] = None
    suites: Tuple[str, ...] = ("default",)
    counters: Tuple[str, ...] = ()
    profile: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() for c in self.name):
            raise PerfError(
                f"benchmark name must be non-empty and space-free, "
                f"got {self.name!r}"
            )
        if not callable(self.run):
            raise PerfError(f"benchmark {self.name!r}: run must be callable")
        if self.setup is not None and not callable(self.setup):
            raise PerfError(f"benchmark {self.name!r}: setup must be callable")
        if not self.suites:
            raise PerfError(
                f"benchmark {self.name!r} must belong to at least one suite"
            )

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)


class BenchmarkRegistry:
    """Named benchmarks, grouped into suites, insertion-order stable."""

    def __init__(self) -> None:
        self._benchmarks: Dict[str, Benchmark] = {}

    def add(self, benchmark: Benchmark) -> Benchmark:
        """Register ``benchmark``; duplicate names are an error."""
        existing = self._benchmarks.get(benchmark.name)
        if existing is not None:
            if existing == benchmark:
                return existing  # idempotent re-import of the same module
            raise PerfError(
                f"benchmark {benchmark.name!r} already registered "
                "with a different declaration"
            )
        self._benchmarks[benchmark.name] = benchmark
        return benchmark

    def register(
        self,
        name: str,
        *,
        units: str = "seconds",
        params: Optional[Mapping[str, Any]] = None,
        setup: Optional[SetupFn] = None,
        suites: Sequence[str] = ("default",),
        counters: Sequence[str] = (),
        profile: bool = False,
        description: str = "",
    ) -> Callable[[RunFn], RunFn]:
        """Decorator form: declare and register a benchmark in place.

        >>> from repro.perf.registry import BenchmarkRegistry
        >>> reg = BenchmarkRegistry()
        >>> @reg.register("demo", params={"n": 4}, suites=("core",))
        ... def _run(n):
        ...     return {"n_squared": n * n}
        >>> reg.get("demo").param_dict
        {'n': 4}
        """

        def decorate(fn: RunFn) -> RunFn:
            self.add(
                Benchmark(
                    name=name,
                    run=fn,
                    units=units,
                    params=tuple(sorted((params or {}).items())),
                    setup=setup,
                    suites=tuple(suites),
                    counters=tuple(counters),
                    profile=profile,
                    description=description or (fn.__doc__ or "").strip(),
                )
            )
            return fn

        return decorate

    # -------------------------------------------------------------- look-up
    def get(self, name: str) -> Benchmark:
        try:
            return self._benchmarks[name]
        except KeyError:
            raise PerfError(
                f"unknown benchmark {name!r}; known: "
                f"{', '.join(sorted(self._benchmarks)) or '(none)'}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._benchmarks)

    def suite(self, suite: str) -> List[Benchmark]:
        """Benchmarks in ``suite``, in registration order."""
        return [
            b for b in self._benchmarks.values() if suite in b.suites
        ]

    def suite_names(self) -> List[str]:
        out: List[str] = []
        for b in self._benchmarks.values():
            for s in b.suites:
                if s not in out:
                    out.append(s)
        return sorted(out)

    def __len__(self) -> int:
        return len(self._benchmarks)

    def __contains__(self, name: object) -> bool:
        return name in self._benchmarks


#: The process-wide registry the CLI and the bench files share.
#: Populated lazily by :func:`load_builtin_suites`.
REGISTRY = BenchmarkRegistry()

#: Module-level convenience decorator bound to :data:`REGISTRY`.
register = REGISTRY.register

#: ``benchmarks/`` of the source checkout (absent from an installed copy,
#: which then has only the ``core`` and ``serve`` suites).
BENCH_DIR = Path(__file__).resolve().parents[3] / "benchmarks"


def import_bench_file(path: Path) -> ModuleType:
    """Import a ``bench_*.py`` file by path, as the module ``path.stem``.

    Every importer must go through here: the same file imported under
    a second module name would declare new function objects, which the
    registry rejects as conflicting declarations.
    """
    module = sys.modules.get(path.stem)
    if module is None:
        spec = importlib.util.spec_from_file_location(path.stem, path)
        if spec is None or spec.loader is None:
            raise PerfError(f"cannot import benchmark file {path}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[path.stem] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[path.stem]
            raise
    return module


def load_builtin_suites() -> BenchmarkRegistry:
    """Import every suite's declarations into :data:`REGISTRY`.

    Import is idempotent (module caching plus idempotent :meth:`add`),
    so callers may invoke this freely before any look-up.
    """
    import repro.perf.suites  # noqa: F401  (registration side effect)

    for path in sorted(BENCH_DIR.glob("bench_*.py")):
        import_bench_file(path)
    return REGISTRY
