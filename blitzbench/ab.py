#!/usr/bin/env python3
"""Same-code A/B: run one workload as two interleaved sets of runs.

  python3 blitzbench/ab.py --workload soc-pm --runs 10

Run i of each set uses seed ``SEED_BASE + i`` and BENCHMARK.json's
``run_seconds``; the sets alternate which goes first.  For every
end-to-end metric it prints each set's median and quartiles, each set's
spread (inter-quartile distance over the median, as
``statistics.quantiles(n=4)`` gives it), and how much worse set B's
median is than set A's, each against the metric's bound from
BENCHMARK.json.  On one checkout both sets run identical code, so any
gap is noise the bounds must absorb.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Run i of both sets uses seed SEED_BASE + i.
SEED_BASE = 100


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    """One ``run.py`` run: its result line, parsed."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "blitzbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed (seed {seed}): {proc.stderr.strip()[-400:]}")
    doc = json.loads(lines[-1])
    doc["host"] = [line for line in lines if line.startswith(("host.steal_share", "reference load"))]
    return doc


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]

    names = ["A", "B"]
    results: Dict[str, List[Dict[str, object]]] = {n: [] for n in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for name in order:
            doc = run_once(args.workload, SEED_BASE + i, seconds)
            results[name].append(doc)
            values = {k: v["value"] for k, v in doc["metrics"].items()}  # type: ignore[union-attr]
            print(f"run {i} set {name} seed {SEED_BASE + i} correct={doc['correct']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
            for line in doc["host"]:  # type: ignore[union-attr]
                print(f"    {line}", flush=True)

    print()
    print(f"workload {args.workload}: {args.runs} runs per set, {seconds} s each, "
          f"nproc {os.cpu_count()}, {datetime.date.today().isoformat()}")
    failing = False
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        row = [f"{name:<14s} {metric['unit']:<6s} bound {bound:<6g}"]
        medians = []
        for set_name in names:
            values = [float(d["metrics"][name]["value"]) for d in results[set_name]]  # type: ignore[index]
            q1, q2, q3 = stats.quartiles(values)
            spread = stats.spread(values)
            medians.append(q2)
            flag = "" if spread <= bound or name == "setup_s" else " OVER"
            failing |= bool(flag)
            row.append(f"{set_name}: {q2:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}{flag}")
        gap = worse_by(medians[0], medians[1], metric["better"])
        flag = "" if gap <= bound else " OVER"
        failing |= bool(flag)
        row.append(f"B worse by {gap:+.3f}{flag}")
        print("  ".join(row))
    incorrect = sum(1 for docs in results.values() for d in docs if not d["correct"])
    if incorrect:
        print(f"{incorrect} runs reported correct=false")
    return 1 if failing or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
