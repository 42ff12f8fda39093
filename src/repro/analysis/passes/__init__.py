"""blitzlint v2 rule families, built on ``repro.analysis.dataflow``.

Each pass exports ``check_<code>(ctx) -> Iterator[Finding]`` with the
same contract as the syntactic rules in ``repro.analysis.lint``; the
front end registers them in its ``_CHECKS`` table.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "c2": ["check_c2"],
        "d2": ["check_d2"],
        "p1": ["check_p1"],
        "u2": ["check_u2"],
    },
)
