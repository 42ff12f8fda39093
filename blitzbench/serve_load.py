"""serve-campaigns: one ``python -m repro serve run`` process, driven over
HTTP by a single closed-loop asyncio client (one job in flight).

*Cold phase*: each job is a novel, re-seeded campaign of one fixed shape
(a 1-way/4-way convergence sweep on d=4 and d=6, 2 trials).  The client
submits it, follows ``/jobs/<id>/stream`` to ``done`` and fetches
``/runs/<hash16>/report``.  *Warm phase*: the client resubmits the cold
phase's specs round-robin and fetches each report again; the service's
dedupe index and store answer without executing anything, and each
answer must equal, byte for byte, what the cold phase fetched.

The client is written here on asyncio streams, not taken from the
program, so a change to the program's own client cannot move the
measurement.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import procs

HOST = "127.0.0.1"

#: The fixed campaign shape every cold job shares; only base_seed varies.
SPEC_SHAPE: Dict[str, Any] = {
    "kind": "convergence",
    "trials": 2,
    "seed_rule": "spawn",
    "axes": [
        {"name": "mode", "values": ["1-way", "4-way"]},
        {"name": "d", "values": [4, 6]},
    ],
    "params": {"threshold": 1.5},
}

#: Share of the run's seconds given to the cold phase, at a nominal
#: :data:`COLD_JOB_S` per job, and to the warm phase.  The cold phase is
#: a fixed count of jobs, so a run's work does not depend on the host's
#: speed; the warm phase is short because it is checked, not gated.
#: With 20 cold jobs per 30 s run, ten-run sets spread 0.097 and 0.108:
#: the run's cold phase now fills all of ``--seconds``.
COLD_SHARE = 1.0
COLD_JOB_S = 1.0
WARM_SHARE = 0.1

#: Terminal stream states that count as a completed job.
OK_STATES = ("done", "cached")

#: A response or stream slower than this fails its request instead of
#: hanging the run (a cold job takes ~1 s).
TIMEOUT_S = 60.0


def cold_jobs(seconds: float, passes: int) -> int:
    """Cold jobs per pass for a run of ``seconds``."""
    return max(1, round(seconds * COLD_SHARE / passes / COLD_JOB_S))


def cold_submissions(seed: int):
    """The endless, seeded sequence of novel campaign submissions."""
    rng = random.Random(f"serve-campaigns:{seed}")
    while True:
        spec = {"name": "serve-bench", "base_seed": rng.randrange(2**31), **SPEC_SHAPE}
        yield {"kind": "campaign", "spec": spec}


# -------------------------------------------------------------- HTTP client
class HttpError(RuntimeError):
    """A response the client could not use."""


async def _read_head(reader: asyncio.StreamReader) -> Tuple[int, Dict[str, str]]:
    status_line = await reader.readline()
    if not status_line:
        raise HttpError("connection closed before a response")
    parts = status_line.decode("latin-1").split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise HttpError(f"bad status line {status_line!r}")
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(parts[1]), headers


class Connection:
    """One keep-alive HTTP/1.1 connection for request/response calls."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, Dict[str, str], bytes]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(HOST, self.port)
        assert self._reader is not None
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        try:
            status, headers = await asyncio.wait_for(_read_head(self._reader), TIMEOUT_S)
            length = int(headers.get("content-length", "0"))
            payload = await asyncio.wait_for(self._reader.readexactly(length), TIMEOUT_S)
        except asyncio.TimeoutError:
            await self.close()
            raise HttpError(f"{method} {path}: no response in {TIMEOUT_S:.0f} s") from None
        except (OSError, ValueError, HttpError, asyncio.IncompleteReadError):
            await self.close()  # the next request starts on a fresh connection
            raise
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, payload

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = self._writer = None


async def follow_stream(port: int, path: str) -> List[Tuple[float, Dict[str, Any]]]:
    """Every frame of a chunked JSONL job stream, stamped on arrival."""
    reader, writer = await asyncio.open_connection(HOST, port)
    frames: List[Tuple[float, Dict[str, Any]]] = []
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: {HOST}\r\n\r\n".encode("latin-1"))
        await writer.drain()
        status, _ = await _read_head(reader)
        if status != 200:
            raise HttpError(f"stream {path} answered {status}")
        pending = b""
        while True:
            size_line = await reader.readline()
            size = int(size_line.strip() or b"0", 16)
            if size == 0:
                break
            pending += await reader.readexactly(size)
            await reader.readexactly(2)
            stamp = time.perf_counter()
            while b"\n" in pending:
                line, _, pending = pending.partition(b"\n")
                if line.strip():
                    frames.append((stamp, json.loads(line)))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return frames


# ------------------------------------------------------------ job records
@dataclass
class ColdJob:
    t0: float
    index: int = 0
    base_seed: int = 0
    t_submitted: float = 0.0
    t_end: float = 0.0
    frames: List[Tuple[float, Dict[str, Any]]] = field(default_factory=list)
    report_path: str = ""
    report: bytes = b""
    sha256: str = ""
    error: str = ""

    @property
    def latency_s(self) -> float:
        return self.t_end - self.t0

    @property
    def hash16(self) -> str:
        """The run's content hash, from ``/runs/<hash16>/report``."""
        return self.report_path.rsplit("/", 2)[-2] if self.report_path else ""


@dataclass
class WarmRequest:
    t0: float
    cold_index: int = 0
    t_submitted: float = 0.0
    t_end: float = 0.0
    outcome: str = ""
    error: str = ""

    @property
    def latency_s(self) -> float:
        return self.t_end - self.t0


def stage_split(
    t0: float,
    t_submitted: float,
    frames: List[Tuple[float, Dict[str, Any]]],
    t_end: float,
) -> Dict[str, float]:
    """Partition one cold job's round trip [t0, t_end] into stages.

    submit: POST /submit; stream_open: until the ``queued`` frame
    arrived; queue_wait: ``queued`` to ``running``; units: ``running``
    to the last ``progress`` frame; finalize: last ``progress`` to
    ``done`` (results, manifest, run report); report: ``done`` to the
    fetched report.  Missing frames make their stage zero-length.
    """
    def first(pred: Any, default: float) -> float:
        return next((t for t, f in frames if pred(f)), default)

    t_done = first(lambda f: f.get("type") == "done", t_end)
    t_open = frames[0][0] if frames else t_submitted
    t_queued = first(lambda f: f.get("type") == "state" and f.get("state") == "queued", t_open)
    t_queued = max(t_queued, t_submitted)
    t_running = max(first(lambda f: f.get("type") == "state" and f.get("state") == "running", t_queued), t_queued)
    progress = [t for t, f in frames if f.get("type") == "progress"]
    t_last = max(progress[-1], t_running) if progress else t_running
    gaps = []
    prev = t_running
    for t in progress:
        gaps.append(max(t, prev) - prev)
        prev = max(t, prev)
    return {
        "submit": t_submitted - t0,
        "stream_open": t_queued - t_submitted,
        "queue_wait": t_running - t_queued,
        "units": t_last - t_running,
        "unit_count": float(len(progress)),
        "finalize": max(t_done, t_last) - t_last,
        "report": t_end - max(t_done, t_last),
        "unit_gaps": gaps,  # type: ignore[dict-item]
    }


async def run_cold_job(
    conn: Connection, port: int, index: int, submission: Dict[str, Any]
) -> ColdJob:
    job = ColdJob(t0=time.perf_counter(), index=index, base_seed=submission["spec"]["base_seed"])
    try:
        status, _, payload = await conn.request("POST", "/submit", json.dumps(submission).encode())
        job.t_submitted = time.perf_counter()
        doc = json.loads(payload)
        if status != 200 or doc.get("outcome") != "new":
            raise HttpError(f"submit answered {status} {doc.get('outcome') or doc.get('error')}")
        job.frames = await asyncio.wait_for(follow_stream(port, doc["links"]["stream"]), TIMEOUT_S)
        done = job.frames[-1][1] if job.frames else {}
        if done.get("type") != "done" or done.get("state") not in OK_STATES:
            raise HttpError(f"job ended {done.get('state')}: {done.get('error', '')}")
        job.report_path = doc["links"]["report"]
        status, _, job.report = await conn.request("GET", job.report_path)
        if status != 200:
            raise HttpError(f"report answered {status}")
        job.sha256 = hashlib.sha256(job.report).hexdigest()
    except (HttpError, OSError, ValueError, KeyError, asyncio.IncompleteReadError,
            asyncio.TimeoutError) as exc:
        job.error = f"{type(exc).__name__}: {exc}"
    job.t_end = time.perf_counter()
    return job


async def run_warm_request(conn: Connection, cold: ColdJob, submission: Dict[str, Any]) -> WarmRequest:
    req = WarmRequest(t0=time.perf_counter(), cold_index=cold.index)
    try:
        status, _, payload = await conn.request("POST", "/submit", json.dumps(submission).encode())
        req.t_submitted = time.perf_counter()
        doc = json.loads(payload)
        req.outcome = str(doc.get("outcome", ""))
        if status != 200 or req.outcome not in ("deduped", "cached"):
            raise HttpError(f"warm submit answered {status} {req.outcome or doc.get('error')}")
        status, _, report = await conn.request("GET", cold.report_path)
        if status != 200 or report != cold.report:
            raise HttpError("warm report differs from the cold fetch")
    except (HttpError, OSError, ValueError, asyncio.IncompleteReadError) as exc:
        req.error = f"{type(exc).__name__}: {exc}"
    req.t_end = time.perf_counter()
    return req


@dataclass
class Phases:
    cold: List[ColdJob]
    warm: List[WarmRequest]
    cold_window_s: float
    warm_window_s: float
    stats: Dict[str, int]
    server_submit_s: float


async def drive(port: int, seed: int, cold_n: int, warm_s: float = 0.0, first: int = 0) -> Phases:
    """Cold jobs ``first`` to ``first + cold_n - 1`` of the seed's
    submission sequence, then ``warm_s`` seconds of warm requests."""
    conn = Connection(port)
    try:
        submissions = cold_submissions(seed)
        for _ in range(first):
            next(submissions)
        cold: List[Tuple[Dict[str, Any], ColdJob]] = []
        t_start = time.perf_counter()
        for index in range(first, first + cold_n):
            submission = next(submissions)
            cold.append((submission, await run_cold_job(conn, port, index, submission)))
        cold_window = time.perf_counter() - t_start

        served = [(s, j) for s, j in cold if not j.error]
        warm: List[WarmRequest] = []
        t_start = time.perf_counter()
        while served and time.perf_counter() - t_start < warm_s:
            submission, job = served[len(warm) % len(served)]
            warm.append(await run_warm_request(conn, job, submission))
        warm_window = time.perf_counter() - t_start

        _, _, summary = await conn.request("GET", "/")
        _, _, metrics = await conn.request("GET", "/metrics")
    finally:
        await conn.close()
    return Phases(
        cold=[j for _, j in cold],
        warm=warm,
        cold_window_s=cold_window,
        warm_window_s=warm_window,
        stats=dict(json.loads(summary).get("stats", {})),
        server_submit_s=server_mean_s(metrics.decode("utf-8", "replace"), "/submit"),
    )


def server_mean_s(metrics_text: str, endpoint: str) -> float:
    """Server-side mean latency of one endpoint from ``/metrics``."""
    total = count = 0.0
    label = f'endpoint="{endpoint}"'
    for line in metrics_text.splitlines():
        if label not in line:
            continue
        name, _, value = line.rpartition(" ")
        if name.startswith("serve_request_ms_sum"):
            total = float(value)
        elif name.startswith("serve_request_ms_count"):
            count = float(value)
    return total / count / 1000.0 if count else 0.0


# ------------------------------------------------------------------ server
class Server:
    """A ``python -m repro serve run`` child on a fresh store and port."""

    def __init__(self, store: str, name: str) -> None:
        self.child = procs.Child(
            [sys.executable, "-m", "repro", "serve", "run", "--host", HOST,
             "--port", "0", "--store", store],
            name,
        )
        try:
            self.startup_s, line = self.child.wait_for("serving on", timeout=90.0)
            self.port = int(line.split()[2].rsplit(":", 1)[1])
        except (procs.ChildError, IndexError, ValueError):
            self.child.stop()
            raise

    @property
    def pid(self) -> int:
        return self.child.proc.pid

    def stop(self) -> None:
        self.child.stop()
