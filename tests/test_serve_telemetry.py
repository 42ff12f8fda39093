"""Service-level telemetry: /metrics, tracing, lanes, fleet dashboard.

Everything the serve layer reports *about itself* — as opposed to the
per-run observability the job stream carries.  The HTTP tests follow
``test_serve.py``'s pattern: a real server on an ephemeral port driven
by the real :class:`ServeClient` inside ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from pathlib import Path

import pytest

from repro.campaign.store import CampaignStore
from repro.obs.metrics import MetricsRegistry
from repro.report.run_report import load_run_report
from repro.serve.client import ServeClient
from repro.serve.server import ServeServer
from repro.serve.telemetry import (
    SERIES_BINS,
    AccessLog,
    PrometheusParseError,
    ServiceTelemetry,
    _sparkline,
    endpoint_of,
    render_fleet_dashboard,
    render_prometheus,
)
from tests.prometheus import parse_prometheus_text
from tests.test_serve import alerting_scenario, smoke_doc

#: Substrings that would mean the dashboard fetches something external
#: (same discipline as the per-run dashboard in repro.report).
BANNED_DASHBOARD_SUBSTRINGS = (
    "http://", "https://", "<script", "<link", "src=", "@import",
)

REQUEST_ID_RE = re.compile(r"^req-\d{6}$")


async def _with_server(store_root: Path, body, **server_kwargs):
    server = ServeServer(CampaignStore(store_root), **server_kwargs)
    host, port = await server.start("127.0.0.1", 0)
    try:
        return await body(server, host, port)
    finally:
        await server.close()


def run_with_server(store_root: Path, body, **server_kwargs):
    return asyncio.run(_with_server(store_root, body, **server_kwargs))


def scenario_doc(seed: int) -> dict:
    return {"kind": "scenario", "scenario": alerting_scenario(seed).to_dict()}


# ------------------------------------------------------------------ endpoints
class TestEndpointOf:
    @pytest.mark.parametrize(
        "path,endpoint",
        [
            ("/", "/"),
            ("/healthz", "/healthz"),
            ("/submit", "/submit"),
            ("/queue", "/queue"),
            ("/metrics", "/metrics"),
            ("/dashboard", "/dashboard"),
            ("/jobs", "/jobs"),
            ("/jobs/campaign-feedfeed", "/jobs/<id>"),
            ("/jobs/campaign-feedfeed/stream", "/jobs/<id>/stream"),
            ("/jobs/campaign-feedfeed/cancel", "/jobs/<id>/cancel"),
            ("/runs/0123456789abcdef/report", "/runs/<hash>/report"),
            ("/runs/0123456789abcdef/dashboard", "/runs/<hash>/dashboard"),
            ("/runs/0123456789abcdef", "/runs/<hash>"),
            ("/nope", "<other>"),
            ("/jobs/x/y/z", "/jobs/<id>"),
        ],
    )
    def test_collapses_to_route_template(self, path, endpoint):
        assert endpoint_of(path) == endpoint

    def test_bounded_label_cardinality(self):
        """A flood of distinct job ids maps to one endpoint label."""
        assert len({endpoint_of(f"/jobs/job-{i}") for i in range(100)}) == 1


# ------------------------------------------------------------ telemetry core
class TestServiceTelemetry:
    def test_request_ids_are_deterministic_and_unique(self):
        telemetry = ServiceTelemetry()
        ids = [telemetry.next_request_id() for _ in range(3)]
        assert ids == ["req-000001", "req-000002", "req-000003"]
        assert all(REQUEST_ID_RE.match(i) for i in ids)

    def test_record_request_feeds_counter_and_histogram(self):
        telemetry = ServiceTelemetry()
        telemetry.record_request("/submit", "POST", 200, 12.5, 3.0)
        telemetry.record_request("/submit", "POST", 200, 40.0, 4.0)
        telemetry.record_request("/queue", "GET", 200, 1.0, 4.0)
        assert telemetry.request_total() == 3
        families = parse_prometheus_text(telemetry.render_metrics())
        counter = families["serve_requests"]
        by_labels = {
            tuple(sorted(labels.items())): value
            for _, labels, value in counter["samples"]
        }
        key = (("endpoint", "/submit"), ("method", "POST"), ("status", "200"))
        assert by_labels[key] == 2
        assert families["serve_request_ms"]["type"] == "histogram"

    def test_dedupe_hit_rate_gauge(self):
        telemetry = ServiceTelemetry()
        telemetry.set_dedupe_hit_rate(
            {"submitted": 8, "deduped": 5, "cache_hits": 1}, 1.0
        )
        families = parse_prometheus_text(telemetry.render_metrics())
        ((_, _, value),) = families["serve_dedupe_hit_rate"]["samples"]
        assert value == pytest.approx(0.75)
        # No submissions yet → rate 0, not a ZeroDivisionError.
        telemetry.set_dedupe_hit_rate({}, 2.0)

    def test_series_tail_is_fixed_width_and_recent(self):
        telemetry = ServiceTelemetry()
        telemetry.record_request("/", "GET", 200, 1.0, 100.0)
        telemetry.record_request("/", "GET", 200, 1.0, 100.4)
        telemetry.record_request("/", "GET", 500, 1.0, 101.0)
        requests = telemetry.series_tail("requests", 101.0)
        errors = telemetry.series_tail("errors", 101.0)
        assert len(requests) == len(errors) == SERIES_BINS
        assert requests[-2:] == [2.0, 1.0]
        assert errors[-1] == 1.0
        assert telemetry.series_tail("requests", 1000.0) == [0.0] * SERIES_BINS


# ----------------------------------------------------------------- prometheus
class TestPrometheusRoundTrip:
    def test_counter_gauge_histogram_round_trip(self):
        registry = MetricsRegistry()
        registry.inc("serve.requests", 1, 3, endpoint="/submit", method="POST")
        registry.inc("serve.requests", 2, endpoint="/queue", method="GET")
        registry.set_gauge("serve.queue_depth", 2, 4)
        hist = registry.histogram("serve.request_ms", bounds=(1, 10, 100))
        for value in (0.5, 5.0, 50.0, 5000.0):
            hist.observe(3, value)
        text = render_prometheus(registry)
        families = parse_prometheus_text(text)
        assert families["serve_requests"]["type"] == "counter"
        assert families["serve_queue_depth"]["type"] == "gauge"
        assert families["serve_request_ms"]["type"] == "histogram"
        totals = [v for _, _, v in families["serve_requests"]["samples"]]
        assert sorted(totals) == [1, 3]
        buckets = {
            labels["le"]: value
            for name, labels, value in families["serve_request_ms"]["samples"]
            if name == "serve_request_ms_bucket"
        }
        # Cumulative: 0.5 | 5 | 50 land in successive buckets, 5000
        # only in +Inf.
        assert (buckets["1"], buckets["10"], buckets["100"]) == (1, 2, 3)
        assert buckets["+Inf"] == 4

    def test_label_values_escape_and_round_trip(self):
        registry = MetricsRegistry()
        tricky = 'a"b\\c\nd'
        registry.inc("odd.metric", 0, 7, detail=tricky)
        families = parse_prometheus_text(render_prometheus(registry))
        ((_, labels, value),) = families["odd_metric"]["samples"]
        assert labels["detail"] == tricky
        assert value == 7

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""
        assert parse_prometheus_text("") == {}


class TestPrometheusParserRejects:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("orphan 1\n", "no preceding # TYPE"),
            ("# TYPE foo counter\nfoo_total -1\n", "counter"),
            ("# TYPE foo counter\nfoo_total NaN\n", "counter"),
            ("# TYPE foo counter\n# TYPE foo counter\n", "duplicate TYPE"),
            ("# TYPE foo banana\n", "bad TYPE"),
            ("# TYPE foo gauge\nfoo abc\n", "bad value"),
            ("# TYPE foo gauge\nfoo{bad} 1\n", "malformed labels"),
            ("# TYPE 1bad gauge\n", "bad metric name"),
            (
                "# TYPE foo histogram\n"
                'foo_bucket{le="1"} 1\n',
                "+Inf",
            ),
            (
                "# TYPE foo histogram\n"
                'foo_bucket{le="1"} 2\n'
                'foo_bucket{le="+Inf"} 1\n',
                "cumulative",
            ),
            (
                "# TYPE foo histogram\n"
                'foo_bucket{le="1"} 1\n'
                'foo_bucket{le="+Inf"} 2\n'
                "foo_count 3\n",
                "_count",
            ),
        ],
    )
    def test_rejects(self, text, fragment):
        with pytest.raises(PrometheusParseError) as excinfo:
            parse_prometheus_text(text)
        assert fragment in str(excinfo.value)

    def test_accepts_free_comments_and_blank_lines(self):
        text = "# a comment\n\n# TYPE up gauge\nup 1\n"
        families = parse_prometheus_text(text)
        assert families["up"]["samples"] == [("up", {}, 1.0)]


# ------------------------------------------------------------------ /metrics
class TestMetricsEndpoint:
    def test_scrape_parses_and_covers_service_families(self, tmp_path):
        async def body(server, host, port):
            async with ServeClient(host, port) as client:
                await client.request("GET", "/healthz")
                await client.request("GET", "/nope")
                response = await client.submit(smoke_doc())
                await client.wait(response["job"])
                await client.submit(smoke_doc())  # a dedupe/cache hit
                return await client.request("GET", "/metrics")

        status, raw = run_with_server(tmp_path / "store", body, lanes=2)
        assert status == 200
        families = parse_prometheus_text(raw.decode("utf-8"))
        for family, kind in {
            "serve_requests": "counter",
            "serve_submissions": "counter",
            "serve_jobs_finished": "counter",
            "serve_stream_frames": "counter",
            "serve_request_ms": "histogram",
            "serve_queue_depth": "gauge",
            "serve_lanes_busy": "gauge",
            "serve_lanes_total": "gauge",
            "serve_dedupe_hit_rate": "gauge",
        }.items():
            assert families[family]["type"] == kind, family
        ((_, _, lanes_total),) = families["serve_lanes_total"]["samples"]
        assert lanes_total == 2
        endpoints = {
            labels["endpoint"]
            for _, labels, _ in families["serve_requests"]["samples"]
        }
        assert {"/healthz", "<other>", "/submit"} <= endpoints
        submit_latency = [
            (labels, value)
            for name, labels, value in families["serve_request_ms"]["samples"]
            if name == "serve_request_ms_count"
            and labels["endpoint"] == "/submit"
        ]
        assert submit_latency and submit_latency[0][1] == 2
        ((_, _, hit_rate),) = families["serve_dedupe_hit_rate"]["samples"]
        assert hit_rate == pytest.approx(0.5)

    def test_metrics_is_get_only(self, tmp_path):
        async def body(server, host, port):
            async with ServeClient(host, port) as client:
                return await client.request("POST", "/metrics")

        status, doc = run_with_server(tmp_path / "store", body)
        assert status == 405


# ------------------------------------------------------------ request tracing
class TestRequestTracing:
    def test_request_id_header_on_every_response(self, tmp_path):
        async def body(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            await reader.readline()
            headers = {}
            while True:
                raw = await reader.readline()
                if raw in (b"\r\n", b"\n", b""):
                    break
                name, _, value = raw.decode().partition(":")
                headers[name.strip().lower()] = value.strip()
            writer.close()
            return headers

        headers = run_with_server(tmp_path / "store", body)
        assert REQUEST_ID_RE.match(headers["x-request-id"])

    def test_request_id_traces_submit_to_job_and_log(self, tmp_path):
        log_path = tmp_path / "access.jsonl"

        async def body(server, host, port):
            async with ServeClient(host, port) as client:
                response = await client.submit(smoke_doc())
                await client.wait(response["job"])
                frames = await client.stream_job(response["job"])
                job = await client.job(response["job"])
                return response, frames, job

        response, frames, job = run_with_server(
            tmp_path / "store", body, access_log=log_path
        )
        request_id = response["request"]
        assert REQUEST_ID_RE.match(request_id)
        # ... into the job document,
        assert request_id in job["requests"]
        # ... into the first stream frame,
        assert frames[0]["type"] == "job"
        assert frames[0]["request"] == request_id
        # ... and into the access log, which links back to the job.
        lines = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
            if line
        ]
        assert lines, "access log must have been written"
        assert all(
            {"ts", "request", "method", "path", "status", "bytes", "ms"}
            <= set(line)
            for line in lines
        )
        submit_lines = [l for l in lines if l["path"] == "/submit"]
        assert submit_lines[0]["request"] == request_id
        assert submit_lines[0]["job"] == response["job"]
        assert submit_lines[0]["status"] == 200
        ids = [line["request"] for line in lines]
        assert len(ids) == len(set(ids))

    def test_access_log_unit_appends_jsonl(self, tmp_path):
        path = tmp_path / "logs" / "a.jsonl"
        log = AccessLog(path)
        log.record({"request": "req-000001", "status": 200})
        log.record({"request": "req-000002", "status": 404})
        log.close()
        log.record({"request": "dropped"})  # after close: silently ignored
        reopened = AccessLog(path)  # append, not truncate
        reopened.record({"request": "req-000003", "status": 200})
        reopened.close()
        docs = [json.loads(l) for l in path.read_text().splitlines()]
        assert [d["request"] for d in docs] == [
            "req-000001", "req-000002", "req-000003",
        ]


# ------------------------------------------------------------ fleet dashboard
class TestFleetDashboard:
    def test_served_dashboard_is_self_contained(self, tmp_path):
        async def body(server, host, port):
            async with ServeClient(host, port) as client:
                response = await client.submit(smoke_doc())
                await client.wait(response["job"])
                return await client.request("GET", "/dashboard")

        status, raw = run_with_server(tmp_path / "store", body, lanes=3)
        assert status == 200
        html = raw.decode("utf-8")
        assert html.startswith("<!DOCTYPE html>")
        assert "fleet dashboard" in html
        for banned in BANNED_DASHBOARD_SUBSTRINGS:
            assert banned not in html, banned
        assert "3 lane(s)" in html
        assert "<svg" in html  # sparklines render inline

    def test_render_covers_fleet_stats(self):
        telemetry = ServiceTelemetry()
        telemetry.record_request("/submit", "POST", 200, 8.0, 1.0)
        telemetry.record_request("/queue", "GET", 500, 2.0, 2.0)
        html = render_fleet_dashboard(
            telemetry,
            stats={
                "submitted": 10,
                "deduped": 4,
                "cache_hits": 1,
                "executed": 5,
                "failed": 1,
            },
            queue_depth=2,
            lanes_busy=3,
            lanes_total=4,
            store_root="/tmp/store",
            uptime_s=61.0,
            now_s=3.0,
        )
        for expected in (
            "50.0%",          # dedupe hit rate (4+1)/10
            "3/4",            # lanes busy / total
            "queue depth",
            "/submit",        # endpoint table row
            "requests/s",     # sparkline labels
            "alerts/s",
        ):
            assert expected in html, expected
        for banned in BANNED_DASHBOARD_SUBSTRINGS:
            assert banned not in html, banned

    def test_quotes_and_markup_are_escaped(self):
        hostile = "a'b\"c<d>&e"
        escaped = "a&#x27;b&quot;c&lt;d&gt;&amp;e"
        page = render_fleet_dashboard(
            ServiceTelemetry(),
            stats={},
            queue_depth=0,
            lanes_busy=0,
            lanes_total=1,
            store_root=hostile,
            uptime_s=0.0,
            now_s=0.0,
        )
        assert f"store {escaped} · " in page
        svg = _sparkline([1.0, 2.0], label=hostile)
        assert f"aria-label='{escaped}'" in svg
        assert f"<text x='2' y='11'>{escaped} · peak 2</text>" in svg
        assert hostile not in page + svg

    def test_dashboard_is_get_only(self, tmp_path):
        async def body(server, host, port):
            async with ServeClient(host, port) as client:
                return await client.request("POST", "/dashboard")

        status, _ = run_with_server(tmp_path / "store", body)
        assert status == 405


# ---------------------------------------------------------------------- lanes
class TestParallelLanes:
    def test_concurrent_streamed_alerts_equal_reports(self, tmp_path):
        """streamed ≡ stored must hold per job under 4 concurrent lanes.

        Four distinct alerting scenarios run at once, each lane scoping
        its own MonitorSet; every job's streamed alert
        sequence must still canonicalize to exactly its own stored
        report — no frame may leak into another job's stream.
        """
        store_root = tmp_path / "store"
        seeds = (3, 5, 7, 11)

        async def one(host, port, seed):
            async with ServeClient(host, port) as client:
                response = await client.submit(scenario_doc(seed))
                frames = await client.stream_job(response["job"])
                job = await client.job(response["job"])
                return seed, frames, job

        async def body(server, host, port):
            return await asyncio.gather(
                *(one(host, port, seed) for seed in seeds)
            )

        results = run_with_server(store_root, body, lanes=4)
        lanes_used = set()
        for seed, frames, job in results:
            scenario = alerting_scenario(seed)
            streamed = [f["alert"] for f in frames if f["type"] == "alert"]
            assert streamed, f"seed {seed} must alert for this test to bite"
            report = load_run_report(
                store_root
                / "scenarios"
                / scenario.scenario_hash[:16]
                / "report.json"
            )
            canonical = sorted(
                streamed,
                key=lambda a: (a["epoch"], a["cycle"], a["monitor"]),
            )
            assert canonical == report.alerts
            done = frames[-1]
            assert done["type"] == "done" and done["state"] == "done"
            assert (
                done["result"]["fingerprint"] == report.summary["fingerprint"]
            )
            assert job["lane"] in range(4)
            lanes_used.add(job["lane"])
        # Four simultaneous distinct jobs on four lanes must overlap.
        assert len(lanes_used) >= 2

    def test_lanes_overlap_blocking_execution(self, tmp_path):
        """4 lanes clear a batch of blocking jobs much faster than 1.

        The executor is replaced with a GIL-releasing sleep (the same
        shape as blocking store/backend I/O), so the measured speedup
        isolates the lane machinery from single-core sim CPU.
        """
        delay, jobs = 0.05, 8
        docs = [scenario_doc(100 + i) for i in range(jobs)]

        def measure(lanes, root):
            async def body(server, host, port):
                def fake_execute(job):
                    time.sleep(delay)
                    return {"kind": "scenario", "stub": True}

                server.queue._execute = fake_execute

                async def one(doc):
                    async with ServeClient(host, port) as client:
                        response = await client.submit(doc)
                        return await client.wait(response["job"])

                t0 = time.monotonic()  # blitzlint: disable=D1 — wall timing
                done = await asyncio.gather(*(one(d) for d in docs))
                elapsed = time.monotonic() - t0  # blitzlint: disable=D1
                assert all(d["state"] == "done" for d in done)
                return elapsed

            return run_with_server(root, body, lanes=lanes)

        serial = measure(1, tmp_path / "s1")
        parallel = measure(4, tmp_path / "s4")
        assert serial >= jobs * delay  # one lane really serializes
        assert parallel < serial * 0.7, (serial, parallel)

    def test_queue_depth_and_cancel_accounting(self, tmp_path):
        async def body():
            queue_store = CampaignStore(tmp_path / "store")
            from repro.serve.jobs import JobQueue
            from repro.serve.protocol import parse_submission

            queue = JobQueue(
                queue_store, loop=asyncio.get_running_loop(), lanes=4
            )
            # No lanes started: jobs stay queued for inspection.
            first, _ = queue.submit(
                parse_submission(scenario_doc(1)), request_id="req-000001"
            )
            queue.submit(parse_submission(scenario_doc(2)))
            assert queue.queue_depth() == 2
            assert queue.busy_lanes() == 0
            queue.cancel(first.id)
            assert queue.queue_depth() == 1
            assert first.requests == ["req-000001"]
            await queue.close()

        asyncio.run(body())
