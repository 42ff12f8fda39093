"""Shared crash-safe filesystem primitives.

Every artifact this repo persists — campaign unit results, RunReports,
fuzz corpus entries, ``BENCH_*.json`` trajectories, serve-side job
records — goes through :func:`atomic_write_text`: write a temp file in
the destination directory, fsync, then :func:`os.replace`.  A SIGKILL
at any point leaves either the old content or the new, never a
truncation, which is the invariant that makes campaign ``--resume``,
corpus verification, and the serve job store sound.

This helper started life inside :mod:`repro.campaign.store`; it now
lives here so the report / fuzz / perf / serve subsystems stop
reaching into the campaign package for a generic io utility.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["atomic_write_text"]


def atomic_write_text(path: Path, text: str) -> Path:
    """Write ``text`` to ``path`` via temp-file-then-rename.

    The temp file lives in the destination directory so the final
    :func:`os.replace` is a same-filesystem atomic rename; a crash at
    any point leaves either the old content or the new, never a
    truncation.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path
