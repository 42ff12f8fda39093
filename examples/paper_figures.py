#!/usr/bin/env python3
"""Regenerate every paper figure's rows in one run.

The one-stop reproduction driver: runs each experiment module (at
reduced trial counts with ``--quick``) and prints the rows the paper
reports, in order.  For CSV outputs use ``scripts/export_results.py``;
for the shape assertions run
``blitzcoin-repro bench run --suite figures``.

Run:  python examples/paper_figures.py [--quick] [--only fig17 fig20 ...]
"""

import argparse
import sys
import time

import repro.experiments as E

CHEAP = {
    "fig01": lambda q: E.fig01_scalability.run(),
    "fig13": lambda q: E.fig13_power_curves.run(),
    "fig21": lambda q: E.fig21_scaling.run(),
}

MONTE_CARLO = {
    "fig03": lambda q: E.fig03_convergence.run(
        dims=(4, 8, 12) if q else E.fig03_convergence.DEFAULT_DIMS,
        trials=3 if q else 10,
    ),
    "fig04": lambda q: E.fig04_tokensmart.run(
        dims=(4, 8, 12) if q else E.fig04_tokensmart.DEFAULT_DIMS,
        trials=3 if q else 10,
    ),
    "fig06": lambda q: E.fig06_dynamic_timing.run(
        dims=(4, 8) if q else E.fig06_dynamic_timing.DEFAULT_DIMS,
        trials=3 if q else 5,
    ),
    "fig07": lambda q: E.fig07_random_pairing.run(
        dims=(10,) if q else (10, 20),
        trials=4 if q else 8,
        settle_cycles=80_000 if q else 150_000,
    ),
    "fig08": lambda q: E.fig08_heterogeneity.run(
        dims=(4, 8) if q else E.fig08_heterogeneity.DEFAULT_DIMS,
        trials=3 if q else 8,
    ),
}

SOC_LEVEL = {
    "fig16": lambda q: E.fig16_power_traces.run(),
    "fig17": lambda q: E.fig17_3x3_eval.run(),
    "fig18": lambda q: E.fig18_4x4_eval.run(),
    "fig19": lambda q: E.fig19_silicon.run(),
    "fig20": lambda q: E.fig20_response.run(),
    "streaming": lambda q: E.streaming.run(frames=3 if q else 4),
}

ALL = {**CHEAP, **MONTE_CARLO, **SOC_LEVEL}

FORMATTERS = {
    "fig01": E.fig01_scalability.format_rows,
    "fig03": E.fig03_convergence.format_rows,
    "fig04": E.fig04_tokensmart.format_rows,
    "fig06": E.fig06_dynamic_timing.format_rows,
    "fig07": E.fig07_random_pairing.format_rows,
    "fig08": E.fig08_heterogeneity.format_rows,
    "fig13": E.fig13_power_curves.format_rows,
    "fig16": E.fig16_power_traces.format_rows,
    "fig17": E.fig17_3x3_eval.format_rows,
    "fig18": E.fig18_4x4_eval.format_rows,
    "fig19": E.fig19_silicon.format_rows,
    "fig20": E.fig20_response.format_rows,
    "fig21": E.fig21_scaling.format_rows,
    "streaming": E.streaming.format_rows,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--only", nargs="*", choices=sorted(ALL))
    args = parser.parse_args(argv)
    targets = args.only or sorted(ALL)
    grand_start = time.time()
    for name in targets:
        t0 = time.time()
        result = ALL[name](args.quick)
        print(f"\n==== {name} ({time.time() - t0:.1f}s) ====")
        for row in FORMATTERS[name](result):
            print(row)
    print(f"\nTotal: {time.time() - grand_start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
