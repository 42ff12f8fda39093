"""Output checks: committed reference outputs and the run digest.

A job is verified when it ran without error, kept the program's own
invariants (checked where it ran) and, for the default seed, matches
the simulated statistics committed under ``reference/``.  On other
seeds only the invariants apply; the digest over every job's output
lets two commits be compared on any seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: The seed whose outputs are committed.
DEFAULT_SEED = 1


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(outputs: Iterable[Tuple[str, Any]]) -> str:
    """sha256 over (job id, output) pairs in run order."""
    h = hashlib.sha256()
    for job_id, output in outputs:
        h.update(canonical([job_id, output]).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> Optional[Dict[str, Any]]:
    """The committed outputs by job id, when ``seed`` is the default."""
    if seed != DEFAULT_SEED:
        return None
    doc = json.loads(reference_path(workload).read_text())
    if doc.get("seed") != seed:
        raise ValueError(f"reference for {workload} is for seed {doc.get('seed')}")
    return doc["outputs"]


def write_reference(workload: str, seed: int, outputs: Mapping[str, Any]) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"workload": workload, "seed": seed, "outputs": dict(outputs)}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def job_failure(job: Mapping[str, Any], reference: Optional[Mapping[str, Any]]) -> Optional[str]:
    """Why ``job`` is not verified, or None when it is.  ``job`` carries
    ``id``, ``ok``, ``error`` and the job's ``output``; a job whose id is
    not in the reference lies beyond the recorded range."""
    if not job.get("ok"):
        return str(job.get("error") or "failed")
    if reference is not None and job["id"] in reference and reference[job["id"]] != job["output"]:
        return "output differs from reference"
    return None


def success_ratio(attempted: int, failed: int) -> float:
    return (attempted - failed) / attempted if attempted else 0.0
