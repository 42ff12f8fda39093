"""The multi-tenant priority job queue layered on the campaign store.

Dedupe contract (docs/SERVICE.md):

1. **In-flight dedupe** — a submission whose job key (kind + content
   hash) matches a queued, running, or finished job joins that job; it
   is never enqueued twice.  N simultaneous identical submissions
   execute once.
2. **Warm cache** — a submission whose artifacts already exist in the
   content-addressed store (campaign: complete manifest + report.json;
   scenario/bundle: result.json) is answered instantly as a ``cached``
   job without ever touching the executor.
3. Only a genuinely new job reaches the priority queue.

A cold run's result and a warm answer are built the same way, so they
have the same keys: a campaign's unit counts, or ``_scenario_result``
over a scenario's stored ``result.json`` (counters included), which
makes a scenario's warm answer equal its cold one.

Execution runs on **N parallel lanes** (``lanes=1`` by default): N
asyncio lane tasks pull from one shared priority heap and hand jobs to
a thread pool of the same width.  A campaign job runs with no
observability sink and streams one ``progress`` frame per unit; a
scenario job installs its ``MonitorSet`` in its lane thread's own
context (``repro.obs.runtime`` resolves ``sink`` per thread), and its
monitors publish each alert frame as they emit it.  Concurrent jobs
therefore stream independently without cross-talk.  Dedupe and the
warm cache still do the heavy lifting for identical traffic; lanes add
overlap for *distinct* jobs (blocking store I/O, and real CPU
parallelism when campaign specs fan units out to worker processes).

Cancellation only targets *queued* jobs (lazy removal from the heap);
a running simulation is never interrupted mid-flight, so the
content-addressed store underneath stays resumable by construction.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.campaign.errors import StoreError
from repro.campaign.executor import run_campaign
from repro.campaign.spec import canonical_json
from repro.campaign.store import CampaignStore
from repro.core.io import atomic_write_text
from repro.fuzz.oracles import Execution, execute_scenario
from repro.fuzz.scenario import Scenario
from repro.obs.monitor import Alert
from repro.report.run_report import scenario_report, write_run_report
from repro.serve.protocol import ServeConflict, Submission
from repro.serve.stream import JobLog
from repro.serve.telemetry import ServiceTelemetry

__all__ = ["Job", "JobQueue", "ScenarioStore"]

#: Job lifecycle states.  ``cached`` is terminal: the job never ran
#: because the store already held its artifacts.
JOB_STATES = ("queued", "running", "done", "cached", "failed", "cancelled")

_TERMINAL = frozenset({"done", "cached", "failed", "cancelled"})

#: Directory characters, matching the campaign store's spec dirs.
_DIR_HASH_CHARS = 16


def _campaign_result(
    spec_hash: str, total: int, cached: int, executed: int
) -> Dict[str, Any]:
    """A campaign job's result, cold (from the run) or warm (manifest)."""
    return {
        "kind": "campaign",
        "spec_hash": spec_hash,
        "total": total,
        "cached": cached,
        "executed": executed,
    }


class ScenarioStore:
    """Content-addressed results for single-scenario (and bundle) jobs.

    Lives under ``<campaign store root>/scenarios/<hash16>/`` — a
    namespace the campaign store's spec-dir scan ignores — and writes
    the same way the campaign store does: canonical JSON through
    :func:`atomic_write_text`, so two runs of the same scenario produce
    byte-identical artifacts.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def run_dir(self, content_hash: str) -> Path:
        return self.root / content_hash[:_DIR_HASH_CHARS]

    def result_path(self, content_hash: str) -> Path:
        return self.run_dir(content_hash) / "result.json"

    def report_path(self, content_hash: str) -> Path:
        return self.run_dir(content_hash) / "report.json"

    def load(self, content_hash: str) -> Optional[Dict[str, Any]]:
        """The cached result document, or None when absent."""
        path = self.result_path(content_hash)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StoreError(f"cannot read scenario result {path}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt scenario result {path}: {exc}") from exc
        if not isinstance(doc, dict) or "fingerprint" not in doc:
            raise StoreError(f"corrupt scenario result {path}: missing fields")
        return doc

    def save(self, scenario: Scenario, execution: Execution) -> Dict[str, Any]:
        """Persist result.json + report.json; returns the result doc."""
        content_hash = scenario.scenario_hash
        report = scenario_report(
            scenario, execution, label=f"scenario-{content_hash[:12]}"
        )
        doc = {
            "schema": 1,
            "scenario_hash": content_hash,
            "fingerprint": execution.fingerprint,
            "counters": {k: execution.counters[k] for k in sorted(execution.counters)},
            "alerts": report.alerts,
            "failures": [f.to_dict() for f in execution.failures],
        }
        write_run_report(report, self.report_path(content_hash))
        atomic_write_text(
            self.result_path(content_hash), canonical_json(doc) + "\n"
        )
        return doc


class Job:
    """One unit of server work, shared by every client that submits it."""

    def __init__(self, submission: Submission, log: JobLog, seq: int) -> None:
        self.submission = submission
        self.log = log
        self.seq = seq
        self.state = "queued"
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        #: How many submissions resolved to this job (1 = no dedupe).
        self.hits = 1
        #: Request ids that resolved to this job (creator first), so an
        #: access-log line can be traced to its job and back.
        self.requests: List[str] = []
        #: Which execution lane ran the job (None until running).
        self.lane: Optional[int] = None
        self.done_event = asyncio.Event()

    @property
    def id(self) -> str:
        return self.submission.job_id

    @property
    def key(self) -> str:
        return self.submission.key

    def describe(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "job": self.id,
            "kind": self.submission.kind,
            "name": self.submission.name,
            "hash": self.submission.content_hash,
            "priority": self.submission.priority,
            "state": self.state,
            "hits": self.hits,
        }
        if self.requests:
            doc["requests"] = list(self.requests)
        if self.lane is not None:
            doc["lane"] = self.lane
        if self.result is not None:
            doc["result"] = self.result
        if self.error is not None:
            doc["error"] = self.error
        return doc

    def finish(self, state: str) -> None:
        """Transition to a terminal state and complete the stream."""
        self.state = state
        frame: Dict[str, Any] = {"type": "done", "state": state}
        if self.result is not None:
            frame["result"] = self.result
        if self.error is not None:
            frame["error"] = self.error
        self.log.publish(frame)
        self.log.close()
        self.done_event.set()


class JobQueue:
    """Priority queue + dedupe index + worker over one campaign store."""

    def __init__(
        self,
        store: CampaignStore,
        *,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        lanes: int = 1,
        exec_delay: float = 0.0,
        telemetry: Optional[ServiceTelemetry] = None,
        now_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.store = store
        self.scenarios = ScenarioStore(store.root / "scenarios")
        self.loop = loop if loop is not None else asyncio.get_event_loop()
        self.lanes = max(1, int(lanes))
        #: Benchmark-only knob: emulate per-job blocking backend latency
        #: (slow store, remote executor) so lane overlap is measurable
        #: on machines where the pure-Python sim pins a single core.
        self.exec_delay = float(exec_delay)
        self.jobs: Dict[str, Job] = {}
        self._by_key: Dict[str, Job] = {}
        self._heap: List[Tuple[int, int, Job]] = []
        self._seq = 0
        self._queued = 0
        self._wake = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.lanes, thread_name_prefix="serve-exec"
        )
        #: Job id currently running on each lane (None = idle).
        self.lane_jobs: List[Optional[str]] = [None] * self.lanes
        self._lane_tasks: List[asyncio.Task] = []
        self._telemetry = telemetry
        self._now = now_fn if now_fn is not None else (lambda: 0.0)
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "deduped": 0,
            "cache_hits": 0,
            "enqueued": 0,
            "executed": 0,
            "failed": 0,
            "cancelled": 0,
        }

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        if not self._lane_tasks:
            self._lane_tasks = [
                self.loop.create_task(self._run_lane(lane))
                for lane in range(self.lanes)
            ]

    async def close(self) -> None:
        for task in self._lane_tasks:
            task.cancel()
        for task in self._lane_tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._lane_tasks = []
        self._pool.shutdown(wait=True)

    # -------------------------------------------------------------- telemetry
    def busy_lanes(self) -> int:
        return sum(1 for job_id in self.lane_jobs if job_id is not None)

    def queue_depth(self) -> int:
        """Jobs genuinely waiting (cancelled heap entries excluded)."""
        return self._queued

    def _gauge_update(self) -> None:
        if self._telemetry is not None:
            now_s = self._now()
            self._telemetry.set_queue_depth(self._queued, now_s)
            self._telemetry.set_lanes(self.busy_lanes(), self.lanes, now_s)

    def _job_finished(self, job: Job) -> None:
        if self._telemetry is not None:
            self._telemetry.record_job_done(
                job.state, job.submission.kind, self._now()
            )

    # ----------------------------------------------------------------- submit
    def submit(
        self, submission: Submission, *, request_id: Optional[str] = None
    ) -> Tuple[Job, str]:
        """Resolve a submission to its job.

        Returns ``(job, outcome)`` with outcome one of ``"new"``
        (enqueued), ``"deduped"`` (joined an existing live job), or
        ``"cached"`` (answered from the warm store, no execution).
        ``request_id`` (when the server supplies one) is recorded on
        the job and stamped into the first stream frame, so the access
        log, the job document, and the stream all tie back to the
        originating request.
        """
        self.stats["submitted"] += 1
        existing = self._by_key.get(submission.key)
        if existing is not None and existing.state not in (
            "failed",
            "cancelled",
        ):
            existing.hits += 1
            if request_id is not None:
                existing.requests.append(request_id)
            self.stats["deduped"] += 1
            self._record_submission("deduped", submission)
            return existing, "deduped"

        cached = self._load_cached(submission)
        on_frame = (
            (lambda frame: self._telemetry.record_frame(frame, self._now()))
            if self._telemetry is not None
            else None
        )
        log = JobLog(self.loop, on_frame=on_frame, request_id=request_id)
        self._seq += 1
        job = Job(submission, log, self._seq)
        if request_id is not None:
            job.requests.append(request_id)
        job_frame = {
            "type": "job",
            "job": job.id,
            "kind": submission.kind,
            "name": submission.name,
            "hash": submission.content_hash,
        }
        if request_id is not None:
            job_frame["request"] = request_id
        log.publish(job_frame)
        self.jobs[job.id] = job
        self._by_key[submission.key] = job
        if cached is not None:
            self.stats["cache_hits"] += 1
            job.result = cached
            job.finish("cached")
            self._record_submission("cached", submission)
            self._job_finished(job)
            return job, "cached"
        self.stats["enqueued"] += 1
        job.log.publish({"type": "state", "state": "queued"})
        heapq.heappush(self._heap, (-submission.priority, self._seq, job))
        self._queued += 1
        self._record_submission("new", submission)
        self._gauge_update()
        self._wake.set()
        return job, "new"

    def _record_submission(self, outcome: str, submission: Submission) -> None:
        if self._telemetry is not None:
            self._telemetry.record_submission(
                outcome, submission.kind, self._now()
            )

    def get(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a *queued* job; conflict for any other state."""
        job = self.get(job_id)
        if job.state != "queued":
            raise ServeConflict(
                f"job {job_id} is {job.state}; only queued jobs can be "
                "cancelled (a running simulation is never interrupted)"
            )
        self.stats["cancelled"] += 1
        self._queued -= 1
        job.finish("cancelled")  # heap entry skipped lazily by the lanes
        self._job_finished(job)
        self._gauge_update()
        return job

    def describe(self) -> Dict[str, Any]:
        """The ``/queue`` view: jobs, stats, and the store-wide scan."""
        specs = []
        for entry in self.store.scan_all():
            specs.append(
                {
                    "dir": entry.dir_name,
                    "name": entry.name,
                    "spec_hash": entry.spec_hash,
                    "total": entry.status.total,
                    "done": entry.status.done,
                    "missing": entry.status.missing,
                    "corrupt": len(entry.status.corrupt),
                    "complete": entry.status.complete,
                    "has_report": entry.has_report,
                    "error": entry.error,
                }
            )
        return {
            "store": str(self.store.root),
            "stats": dict(self.stats),
            "jobs": [
                job.describe()
                for job in sorted(self.jobs.values(), key=lambda j: j.seq)
            ],
            "specs": specs,
        }

    # ------------------------------------------------------------ warm cache
    def _load_cached(self, submission: Submission) -> Optional[Dict[str, Any]]:
        """The stored result when every artifact already exists."""
        if submission.kind == "campaign":
            spec = submission.spec
            assert spec is not None
            manifest = self.store.load_manifest(spec)
            if (
                manifest is None
                or not manifest.get("complete")
                or not self.store.report_path(spec).exists()
            ):
                return None
            total = int(manifest.get("total", 0))
            return _campaign_result(spec.spec_hash, total, total, 0)
        doc = self.scenarios.load(submission.content_hash)
        if doc is None:
            return None
        return self._scenario_result(submission, doc)

    @staticmethod
    def _scenario_result(
        submission: Submission, doc: Dict[str, Any]
    ) -> Dict[str, Any]:
        result = {
            "kind": submission.kind,
            "scenario_hash": doc["scenario_hash"],
            "fingerprint": doc["fingerprint"],
            "alerts": len(doc.get("alerts", [])),
            "failures": len(doc.get("failures", [])),
            "counters": doc.get("counters", {}),
        }
        if submission.kind == "bundle":
            expected = submission.expected_fingerprint
            failure = submission.expected_failure
            assert failure is not None
            keys = {f.get("key") for f in doc.get("failures", [])}
            keys |= {
                f"monitor:{a.get('monitor')}"
                for a in doc.get("alerts", [])
                if a.get("severity") == "error"
            }
            result["expected_fingerprint"] = expected
            result["fingerprint_match"] = doc["fingerprint"] == expected
            result["failure_reproduced"] = failure.key in keys
        return result

    # ---------------------------------------------------------------- lanes
    async def _run_lane(self, lane: int) -> None:
        """One execution lane: pop, run on the thread pool, finish.

        All N lane tasks share the heap and the wake event.  Popping
        is race-free because submit and pop both run on the event loop
        with no ``await`` in between; the guard loop re-checks the
        heap after every wake so a cleared event can never strand a
        queued job.
        """
        while True:
            while not self._heap:
                self._wake.clear()
                await self._wake.wait()
            _, _, job = heapq.heappop(self._heap)
            if job.state != "queued":
                continue  # cancelled while queued
            self._queued -= 1
            job.state = "running"
            job.lane = lane
            self.lane_jobs[lane] = job.id
            self._gauge_update()
            job.log.publish({"type": "state", "state": "running", "lane": lane})
            try:
                job.result = await self.loop.run_in_executor(
                    self._pool, self._execute, job
                )
            except asyncio.CancelledError:
                self.lane_jobs[lane] = None
                raise
            except Exception as exc:  # noqa: BLE001 — a job may fail
                # for any reason; the lane itself must survive.
                job.error = (
                    str(exc).splitlines()[0]
                    if str(exc)
                    else type(exc).__name__
                )
                self.stats["failed"] += 1
                job.finish("failed")
            else:
                self.stats["executed"] += 1
                job.finish("done")
            self.lane_jobs[lane] = None
            self._job_finished(job)
            self._gauge_update()

    # ------------------------------------------------------------- execution
    def _execute(self, job: Job) -> Dict[str, Any]:
        """Run one job on its lane thread; returns its result doc."""
        if self.exec_delay > 0:
            # Lane-overlap benchmarking only (see ``exec_delay``); the
            # sleep releases the GIL like the blocking backend it
            # stands in for.
            time.sleep(self.exec_delay)  # blitzlint: disable=D1
        if job.submission.kind == "campaign":
            return self._execute_campaign(job)
        return self._execute_scenario(job)

    def _execute_campaign(self, job: Job) -> Dict[str, Any]:
        spec = job.submission.spec
        assert spec is not None
        publish = job.log.publish_threadsafe

        def progress(done: int, total: int, unit: Any, cached: bool) -> None:
            publish(
                {
                    "type": "progress",
                    "done": done,
                    "total": total,
                    "unit": unit.unit_hash[:12],
                    "cached": cached,
                }
            )

        run = run_campaign(spec, store=self.store, progress=progress)
        return _campaign_result(spec.spec_hash, run.total, run.cached, run.executed)

    def _execute_scenario(self, job: Job) -> Dict[str, Any]:
        scenario = job.submission.scenario
        assert scenario is not None
        publish = job.log.publish_threadsafe

        def on_alert(alert: Alert) -> None:
            publish({"type": "alert", "alert": alert.to_dict()})

        execution = execute_scenario(scenario, on_alert=on_alert)
        doc = self.scenarios.save(scenario, execution)
        return self._scenario_result(job.submission, doc)
