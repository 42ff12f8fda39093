"""repro.serve: protocol validation, dedupe, streaming, cancellation.

The HTTP tests run a real server on an ephemeral port and drive it
with the real :class:`ServeClient` — the same code path the load
generator and the CI smoke job use — inside ``asyncio.run`` (the repo
takes no async test framework dependency).
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest

from repro.campaign.presets import get_preset
from repro.campaign.store import CampaignStore
from repro.fuzz.scenario import EngineSection, Scenario
from repro.report.run_report import load_run_report
from repro.serve.client import ClientError, ServeClient
from repro.serve.jobs import JobQueue
from repro.serve.protocol import ServeError, parse_submission
from repro.serve.server import ServeServer
from repro.serve.stream import JobLog, StreamingSink


def alerting_scenario(seed: int = 7) -> Scenario:
    """A small engine scenario whose starved pool raises alerts."""
    return Scenario(
        kind="engine",
        seed=seed,
        variant="4way",
        max_cycles=60_000,
        engine=EngineSection(dim=3, max_by_tile=(8,) * 9, pool=20),
    )


def smoke_doc() -> dict:
    return {"kind": "campaign", "spec": get_preset("smoke").to_dict()}


async def _with_server(store_root: Path, body) -> object:
    server = ServeServer(CampaignStore(store_root))
    host, port = await server.start("127.0.0.1", 0)
    try:
        return await body(server, host, port)
    finally:
        await server.close()


def run_with_server(store_root: Path, body) -> object:
    return asyncio.run(_with_server(store_root, body))


# ------------------------------------------------------------------- protocol
class TestParseSubmission:
    def test_campaign_spec_roundtrip(self):
        sub = parse_submission(smoke_doc())
        assert sub.kind == "campaign"
        assert sub.spec is not None
        assert sub.key == f"campaign:{sub.spec.spec_hash}"
        assert sub.job_id == f"campaign-{sub.spec.spec_hash[:16]}"

    def test_campaign_preset(self):
        sub = parse_submission({"kind": "campaign", "preset": "smoke"})
        assert sub.spec is not None
        assert sub.spec.spec_hash == get_preset("smoke").spec_hash

    def test_scenario(self):
        scenario = alerting_scenario()
        sub = parse_submission(
            {"kind": "scenario", "scenario": scenario.to_dict()}
        )
        assert sub.content_hash == scenario.scenario_hash

    def test_bundle(self):
        scenario = alerting_scenario()
        sub = parse_submission(
            {
                "kind": "bundle",
                "bundle": {
                    "scenario": scenario.to_dict(),
                    "failure": {
                        "oracle": "monitor",
                        "key": "monitor:starvation",
                        "detail": "x",
                    },
                    "fingerprint": "ab" * 16,
                },
            }
        )
        assert sub.expected_fingerprint == "ab" * 16
        assert sub.expected_failure is not None
        # A bundle is its own dedupe lane, distinct from the bare scenario.
        assert sub.key == f"bundle:{scenario.scenario_hash}"

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            (None, "must be a JSON object"),
            ({}, "unknown submission kind"),
            ({"kind": "nope"}, "unknown submission kind"),
            ({"kind": "campaign"}, "exactly one of 'spec' or 'preset'"),
            (
                {"kind": "campaign", "preset": "s", "spec": {}},
                "exactly one of",
            ),
            ({"kind": "campaign", "preset": 7}, "preset must be a string"),
            (
                {"kind": "campaign", "spec": {"bogus": 1}},
                "invalid campaign spec",
            ),
            (
                {"kind": "scenario", "scenario": {"kind": "x"}},
                "invalid scenario",
            ),
            ({"kind": "bundle", "bundle": {}}, "bundle missing field"),
            (
                {"kind": "scenario", "scenario": {}, "extra": 1},
                "unknown submission field",
            ),
            (
                {
                    "kind": "campaign",
                    "preset": "smoke",
                    "priority": "high",
                },
                "priority must be an integer",
            ),
            (
                {"kind": "campaign", "preset": "smoke", "priority": 99},
                "out of range",
            ),
        ],
    )
    def test_rejects_one_line(self, doc, fragment):
        with pytest.raises(ServeError) as excinfo:
            parse_submission(doc)
        message = str(excinfo.value)
        assert fragment in message
        assert "\n" not in message


# -------------------------------------------------------------------- dedupe
class TestDedupe:
    def test_concurrent_identical_submissions_execute_once(self, tmp_path):
        """N simultaneous identical submissions resolve to one execution."""
        doc = smoke_doc()

        async def body(server, host, port):
            async def one():
                async with ServeClient(host, port) as client:
                    response = await client.submit(doc)
                    await client.wait(response["job"])
                    return response

            responses = await asyncio.gather(*(one() for _ in range(8)))
            async with ServeClient(host, port) as client:
                queue = await client.queue()
            return responses, queue

        responses, queue = run_with_server(tmp_path / "store", body)
        assert len({r["job"] for r in responses}) == 1
        outcomes = sorted(r["outcome"] for r in responses)
        assert outcomes.count("new") == 1
        assert queue["stats"]["executed"] == 1
        assert queue["stats"]["submitted"] == 8
        assert queue["stats"]["deduped"] == 7

    def test_warm_resubmission_executes_nothing(self, tmp_path):
        """A fresh server over a warm store answers without executing."""
        store_root = tmp_path / "store"
        doc = smoke_doc()

        async def first(server, host, port):
            async with ServeClient(host, port) as client:
                response = await client.submit(doc)
                return await client.wait(response["job"])

        done = run_with_server(store_root, first)
        assert done["state"] == "done"
        assert done["result"]["executed"] == 4

        async def second(server, host, port):
            async with ServeClient(host, port) as client:
                response = await client.submit(doc)
                frames = await client.stream_job(response["job"])
                queue = await client.queue()
                return response, frames, queue

        response, frames, queue = run_with_server(store_root, second)
        assert response["outcome"] == "cached"
        assert response["state"] == "cached"
        assert queue["stats"]["executed"] == 0
        assert queue["stats"]["cache_hits"] == 1
        final = frames[-1]
        assert final["type"] == "done" and final["state"] == "cached"
        assert final["result"]["executed"] == 0

    def test_independent_runs_store_identical_bytes(self, tmp_path):
        """Two cold executions of one spec produce byte-identical artifacts."""
        doc = smoke_doc()
        spec_dir = parse_submission(doc).content_hash[:16]

        async def body(server, host, port):
            async with ServeClient(host, port) as client:
                response = await client.submit(doc)
                await client.wait(response["job"])

        blobs = []
        for name in ("a", "b"):
            root = tmp_path / name
            run_with_server(root, body)
            report = root / spec_dir / "report.json"
            results = root / spec_dir / "results.jsonl"
            blobs.append((report.read_bytes(), results.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_scenario_warm_cache(self, tmp_path):
        store_root = tmp_path / "store"
        scenario = alerting_scenario()
        doc = {"kind": "scenario", "scenario": scenario.to_dict()}

        async def body(server, host, port):
            async with ServeClient(host, port) as client:
                first = await client.submit(doc)
                await client.wait(first["job"])
                return first

        run_with_server(store_root, body)

        async def warm(server, host, port):
            async with ServeClient(host, port) as client:
                response = await client.submit(doc)
                stats = (await client.queue())["stats"]
                return response, stats

        response, stats = run_with_server(store_root, warm)
        assert response["outcome"] == "cached"
        assert stats["executed"] == 0


# ------------------------------------------------------------------ streaming
class TestStreaming:
    def test_streamed_alerts_equal_report(self, tmp_path):
        """The streamed alert sequence is the frozen report's alert list.

        Stream order is emission order; the canonical order is a
        *stable* sort by (epoch, cycle, monitor), so sorting the
        streamed frames by that key must reproduce report.json exactly.
        """
        store_root = tmp_path / "store"
        scenario = alerting_scenario()

        async def body(server, host, port):
            async with ServeClient(host, port) as client:
                response = await client.submit(
                    {"kind": "scenario", "scenario": scenario.to_dict()}
                )
                return response, await client.stream_job(response["job"])

        response, frames = run_with_server(store_root, body)
        streamed = [f["alert"] for f in frames if f["type"] == "alert"]
        assert streamed, "scenario must raise alerts for this test to bite"
        report = load_run_report(
            store_root
            / "scenarios"
            / scenario.scenario_hash[:16]
            / "report.json"
        )
        canonical = sorted(
            streamed, key=lambda a: (a["epoch"], a["cycle"], a["monitor"])
        )
        assert canonical == report.alerts
        done = frames[-1]
        assert done["type"] == "done"
        assert done["result"]["fingerprint"] == report.summary["fingerprint"]

    def test_scenario_done_counters_equal_stored(self, tmp_path):
        """A scenario job's done frame totals the stored counters."""
        store_root = tmp_path / "store"
        scenario = alerting_scenario()

        async def body(server, host, port):
            async with ServeClient(host, port) as client:
                response = await client.submit(
                    {"kind": "scenario", "scenario": scenario.to_dict()}
                )
                return await client.stream_job(response["job"])

        frames = run_with_server(store_root, body)
        done = frames[-1]
        assert done["type"] == "done"
        stored = json.loads(
            (
                store_root
                / "scenarios"
                / scenario.scenario_hash[:16]
                / "result.json"
            ).read_text()
        )
        assert stored["counters"]
        assert done["result"]["counters"] == stored["counters"]

    def test_campaign_stream_has_progress_and_counters(self, tmp_path):
        async def body(server, host, port):
            async with ServeClient(host, port) as client:
                response = await client.submit(smoke_doc())
                return await client.stream_job(response["job"])

        frames = run_with_server(tmp_path / "store", body)
        kinds = {frame["type"] for frame in frames}
        assert {"job", "state", "progress", "counter", "done"} <= kinds
        counters = [f for f in frames if f["type"] == "counter"]
        # Only the campaign.* family streams live; engine counters
        # appear solely as totals in the done frame.
        assert counters and all(
            f["name"].startswith("campaign.") for f in counters
        )
        done = frames[-1]
        assert done["result"]["counters"]["campaign.units_executed"] == 4
        assert any(
            not name.startswith("campaign.")
            for name in done["result"]["counters"]
        )

    def test_late_subscriber_replays_history(self, tmp_path):
        """Streaming a finished job returns its complete frame history."""

        async def body(server, host, port):
            async with ServeClient(host, port) as client:
                response = await client.submit(smoke_doc())
                live = await client.stream_job(response["job"])
                replay = await client.stream_job(response["job"])
                return live, replay

        live, replay = run_with_server(tmp_path / "store", body)
        assert live == replay


class TestStreamingSink:
    def test_counter_whitelist_and_totals(self):
        frames = []
        sink = StreamingSink(frames.append)
        sink.inc("campaign.units_total", 0, 4)
        sink.inc("engine.exchanges_initiated", 10)
        sink.inc("engine.exchanges_initiated", 20)
        sink.set_gauge("campaign.units_remaining", 0, 3)
        sink.set_gauge("engine.depth", 0, 9)
        assert [f["type"] for f in frames] == ["counter", "gauge"]
        assert frames[0]["name"] == "campaign.units_total"
        assert sink.totals == {
            "campaign.units_total": 4,
            "engine.exchanges_initiated": 2,
        }

    def test_job_log_close_is_idempotent_and_replays(self):
        async def body():
            log = JobLog(asyncio.get_running_loop())
            log.publish({"type": "a"})
            early = log.subscribe()
            log.publish({"type": "b"})
            log.close()
            log.publish({"type": "dropped"})
            log.close()
            late = log.subscribe()

            async def drain(queue):
                frames = []
                while True:
                    frame = await queue.get()
                    if frame is None:
                        return frames
                    frames.append(frame)

            return await drain(early), await drain(late)

        early, late = asyncio.run(body())
        assert [f["type"] for f in early] == ["a", "b"]
        assert early == late


# --------------------------------------------------------------- cancellation
class TestCancellation:
    def test_cancel_mid_queue_leaves_store_resumable(self, tmp_path):
        """A cancelled queued job never touches the store; the spec can
        still be executed to completion afterwards."""
        store_root = tmp_path / "store"
        blocker = smoke_doc()
        victim = {"kind": "campaign", "preset": "fig03-quick"}

        async def body(server, host, port):
            # Hold the worker at the gate so the victim stays queued —
            # the server runs in-process, so the test can interpose.
            import threading

            gate = threading.Event()
            original_execute = server.queue._execute

            def gated_execute(job):
                gate.wait(timeout=60)
                return original_execute(job)

            server.queue._execute = gated_execute
            async with ServeClient(host, port) as client:
                first = await client.submit(blocker)
                second = await client.submit(victim)
                status, cancelled = await client.cancel(second["job"])
                gate.set()
                await client.wait(first["job"])
                # Cancelling a finished job is a 409 conflict.
                conflict_status, conflict = await client.cancel(first["job"])
                job = await client.job(second["job"])
                return status, cancelled, conflict_status, conflict, job

        status, cancelled, conflict_status, conflict, job = run_with_server(
            store_root, body
        )
        assert status == 200 and cancelled["state"] == "cancelled"
        assert conflict_status == 409 and "error" in conflict
        assert job["state"] == "cancelled"
        victim_hash = parse_submission(victim).content_hash
        assert not (store_root / victim_hash[:16]).exists()

        # The store is resumable: resubmitting the cancelled spec on a
        # fresh server runs it to completion.
        async def resume(server, host, port):
            async with ServeClient(host, port) as client:
                response = await client.submit(victim)
                return await client.wait(response["job"])

        done = run_with_server(store_root, resume)
        assert done["state"] == "done"
        assert done["result"]["executed"] > 0

    def test_cancel_unknown_job_is_404(self, tmp_path):
        async def body(server, host, port):
            async with ServeClient(host, port) as client:
                return await client.cancel("campaign-feedfeedfeedfeed")

        status, body_doc = run_with_server(tmp_path / "store", body)
        assert status == 404
        assert "no such job" in body_doc["error"]


# ------------------------------------------------------------------ priority
class TestPriority:
    def test_higher_priority_runs_first(self, tmp_path):
        """With the worker busy, a later high-priority job overtakes a
        queued low-priority one."""

        async def body():
            queue = JobQueue(
                CampaignStore(tmp_path / "store"),
                loop=asyncio.get_running_loop(),
            )
            # No worker started: inspect the heap order directly.
            low = parse_submission(
                {"kind": "campaign", "preset": "smoke", "priority": -2}
            )
            high = parse_submission(
                {"kind": "campaign", "preset": "fig03-quick", "priority": 5}
            )
            queue.submit(low)
            queue.submit(high)
            import heapq

            order = [
                heapq.heappop(queue._heap)[2].submission.priority
                for _ in range(2)
            ]
            await queue.close()
            return order

        assert asyncio.run(body()) == [5, -2]


# ----------------------------------------------------------------- bad input
class TestBadRequests:
    def test_corrupt_json_is_400_one_line(self, tmp_path):
        """Corrupt submission bodies get a one-line 400, no traceback."""

        async def body(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            payload = b'{"kind": "campaign", '  # truncated JSON
            writer.write(
                b"POST /submit HTTP/1.1\r\n"
                b"Host: x\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(payload), payload)
            )
            await writer.drain()
            status_line = await reader.readline()
            headers = {}
            while True:
                raw = await reader.readline()
                if raw in (b"\r\n", b"\n", b""):
                    break
                name, _, value = raw.decode().partition(":")
                headers[name.strip().lower()] = value.strip()
            body_bytes = await reader.readexactly(
                int(headers["content-length"])
            )
            writer.close()
            return status_line, body_bytes

        status_line, body_bytes = run_with_server(tmp_path / "store", body)
        assert b"400" in status_line
        doc = json.loads(body_bytes)
        assert "not valid JSON" in doc["error"]
        assert "\n" not in doc["error"]
        assert "Traceback" not in body_bytes.decode()

    def test_unknown_route_and_method(self, tmp_path):
        async def body(server, host, port):
            async with ServeClient(host, port) as client:
                missing = await client.request("GET", "/nope")
                wrong = await client.request("GET", "/submit")
                bad_run = await client.request("GET", "/runs/../report")
                gone = await client.request(
                    "GET", "/runs/feedfeedfeedfeed/report"
                )
                return missing, wrong, bad_run, gone

        missing, wrong, bad_run, gone = run_with_server(
            tmp_path / "store", body
        )
        assert missing[0] == 404
        assert wrong[0] == 405
        assert bad_run[0] == 400
        assert gone[0] == 404

    def test_submit_rejection_raises_client_error(self, tmp_path):
        async def body(server, host, port):
            async with ServeClient(host, port) as client:
                with pytest.raises(ClientError) as excinfo:
                    await client.submit({"kind": "nope"})
                return str(excinfo.value)

        message = run_with_server(tmp_path / "store", body)
        assert "unknown submission kind" in message


# ----------------------------------------------------------------- dashboards
class TestRunArtifacts:
    def test_report_and_dashboard_served(self, tmp_path):
        async def body(server, host, port):
            async with ServeClient(host, port) as client:
                response = await client.submit(smoke_doc())
                await client.wait(response["job"])
                run = response["hash"][:16]
                report = await client.request("GET", f"/runs/{run}/report")
                dash = await client.request("GET", f"/runs/{run}/dashboard")
                return report, dash

        report, dash = run_with_server(tmp_path / "store", body)
        assert report[0] == 200
        assert report[1]["kind"] == "campaign"
        assert dash[0] == 200
        assert b"<!DOCTYPE html>" in dash[1]

    def test_generic_get_of_stream_returns_jsonl_text(self, tmp_path):
        """A plain GET of /stream (the `serve get` path) must come back
        as JSONL text, not be fed line-concatenated into json.loads —
        "application/jsonl".startswith("application/json") is true, so
        the dispatch order in the client is load-bearing.
        """

        async def body(server, host, port):
            async with ServeClient(host, port) as client:
                response = await client.submit(smoke_doc())
                await client.wait(response["job"])
                return await client.request(
                    "GET", f"/jobs/{response['job']}/stream"
                )

        status, text = run_with_server(tmp_path / "store", body)
        assert status == 200
        assert isinstance(text, str)
        frames = [json.loads(line) for line in text.splitlines() if line]
        assert frames[0]["type"] == "job"
        assert frames[-1]["type"] == "done"
