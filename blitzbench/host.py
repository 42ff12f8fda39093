"""Host diagnostics: CPU steal over a window, a speed probe, peak RSS;
and the CPU placement of a serve run.

The diagnostics explain spread; they are never gated.  A run whose
probe is slow or whose steal share is high was measured on a busy host.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import List, Optional

_PROC_STAT = Path("/proc/stat")

#: Iterations of the fixed pure-Python probe loop (~0.1 s on a 2-vCPU Xeon).
PROBE_ITERATIONS = 1_000_000


def cpu_times() -> Optional[List[int]]:
    """The aggregate ``cpu`` line of /proc/stat, or None off Linux."""
    try:
        first = _PROC_STAT.read_text().splitlines()[0]
    except (OSError, IndexError):
        return None
    fields = first.split()
    if not fields or fields[0] != "cpu":
        return None
    return [int(x) for x in fields[1:]]


def steal_share(before: Optional[List[int]], after: Optional[List[int]]) -> float:
    """Stolen ticks / all ticks between two :func:`cpu_times` readings.

    The first eight fields are user, nice, system, idle, iowait, irq,
    softirq and steal; guest time is already counted inside user.
    """
    if before is None or after is None or len(before) < 8 or len(after) < 8:
        return 0.0
    delta = [a - b for a, b in zip(after[:8], before[:8])]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def probe_s(iterations: int = PROBE_ITERATIONS) -> float:
    """Wall time of a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    elapsed = time.perf_counter() - t0
    if acc < 0:  # keeps the loop's result live
        raise AssertionError(acc)
    return elapsed


def pin_apart(pid: int) -> int:
    """Pin every thread of process ``pid`` to the last CPU this process
    may use, and this process to the others (to that CPU too, on a
    one-CPU host).  Returns the CPU ``pid`` runs on."""
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[-1]
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:  # a thread that has just ended
            pass
    os.sched_setaffinity(0, set(cpus[:-1]) or {cpu})
    return cpu


def vm_hwm_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0
