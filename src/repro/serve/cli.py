"""The ``blitzcoin-repro serve`` subcommand family.

``serve run``      — run the HTTP service in the foreground
``serve submit``   — submit a JSON file (spec / scenario / bundle) to a
                     running server, optionally waiting for the result
``serve get``      — GET any service path (queue view, report, stream)
``serve cancel``   — cancel a queued job
``serve loadtest`` — prime + storm load test, printing p50/p90/p99
                     latency, throughput, and the dedupe hit rate

Exit codes follow the repo convention: 0 success, 1 findings (a job
that failed, a load test that dropped work), 2 usage/environment
errors — always one line on stderr, never a traceback.  The errors
(:class:`~repro.serve.protocol.ServeError` is a ``ValueError``) and a
closed stdout leave through :func:`repro.cli.main`.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

from repro.campaign.store import CampaignStore
from repro.serve.client import ServeClient
from repro.serve.loadgen import format_load_report, run_load
from repro.serve.server import ServeServer

__all__ = [
    "add_serve_parser",
    "cmd_serve_cancel",
    "cmd_serve_get",
    "cmd_serve_loadtest",
    "cmd_serve_run",
    "cmd_serve_submit",
]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765
#: Shares the campaign CLI's default store so a spec run locally is
#: already warm when submitted to the service (and vice versa).
DEFAULT_SERVE_STORE = ".blitzcoin-campaigns"


def _run(coro) -> int:  # type: ignore[no-untyped-def]
    try:
        return asyncio.run(coro)
    except KeyboardInterrupt:
        return 0


# ---------------------------------------------------------------------- serve
async def _serve(args: argparse.Namespace) -> int:
    server = ServeServer(
        CampaignStore(args.store),
        lanes=args.lanes,
        access_log=args.access_log,
    )
    host, port = await server.start(args.host, args.port)
    print(
        f"serving on http://{host}:{port}  store={args.store}  "
        f"lanes={server.lanes}",
        flush=True,
    )
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()
    return 0


def cmd_serve_run(args: argparse.Namespace) -> int:
    return _run(_serve(args))


# --------------------------------------------------------------------- submit
async def _submit(args: argparse.Namespace) -> int:
    try:
        doc = json.loads(Path(args.file).read_text())
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.file} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if isinstance(doc, dict) and "kind" not in doc:
        # Bare payloads are wrapped for convenience: a CampaignSpec file
        # has "trials", a Scenario file "seed"+"max_cycles", a bundle
        # "fingerprint"+"failure".
        if "fingerprint" in doc and "failure" in doc:
            doc = {"kind": "bundle", "bundle": doc}
        elif "trials" in doc:
            doc = {"kind": "campaign", "spec": doc}
        elif "max_cycles" in doc:
            doc = {"kind": "scenario", "scenario": doc}
    async with ServeClient(args.host, args.port) as client:
        response = await client.submit(doc)
        print(
            f"job {response['job']}  state={response['state']} "
            f"outcome={response['outcome']}"
        )
        if not args.wait:
            return 0
        done = await client.wait(response["job"])
        state = done.get("state")
        print(f"final state={state}")
        if "result" in done:
            print(json.dumps(done["result"], indent=2, sort_keys=True))
        if state in ("done", "cached"):
            return 0
        if "error" in done:
            print(f"error: {done['error']}", file=sys.stderr)
        return 1


def cmd_serve_submit(args: argparse.Namespace) -> int:
    return _run(_submit(args))


# ------------------------------------------------------------------------ get
async def _get(args: argparse.Namespace) -> int:
    path = args.path if args.path.startswith("/") else f"/{args.path}"
    async with ServeClient(args.host, args.port) as client:
        status, body = await client.request("GET", path)
    if isinstance(body, bytes):
        sys.stdout.write(body.decode("utf-8", "replace"))
    elif isinstance(body, str):
        sys.stdout.write(body)
    else:
        print(json.dumps(body, indent=2, sort_keys=True))
    return 0 if status == 200 else 1


def cmd_serve_get(args: argparse.Namespace) -> int:
    return _run(_get(args))


# --------------------------------------------------------------------- cancel
async def _cancel(args: argparse.Namespace) -> int:
    async with ServeClient(args.host, args.port) as client:
        status, body = await client.cancel(args.job)
    if status == 200:
        print(f"job {body['job']}  state={body['state']}")
        return 0
    print(f"error: {body.get('error', body)}", file=sys.stderr)
    return 1


def cmd_serve_cancel(args: argparse.Namespace) -> int:
    return _run(_cancel(args))


# ------------------------------------------------------------------- loadtest
async def _loadtest(args: argparse.Namespace) -> int:
    server = None
    host, port = args.host, args.port
    if args.self_hosted:
        server = ServeServer(
            CampaignStore(args.store),
            lanes=args.lanes,
            exec_delay=args.exec_delay,
        )
        host, port = await server.start(args.host, 0)
    try:
        report = await run_load(
            host,
            port,
            clients=args.clients,
            requests_per_client=args.requests,
            pool_size=args.pool,
            preset=args.preset,
            mode=args.mode,
            lanes=args.lanes if args.self_hosted else 0,
        )
    finally:
        if server is not None:
            await server.close()
    lines = [format_load_report(report)]
    if args.json:
        Path(args.json).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        lines.append(f"wrote {args.json}")
    print("\n".join(lines))
    dropped = report["dropped_jobs"] + report["request_errors"]
    return 0 if dropped == 0 else 1


def cmd_serve_loadtest(args: argparse.Namespace) -> int:
    return _run(_loadtest(args))


# --------------------------------------------------------------------- parser
def _add_endpoint(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--host", default=DEFAULT_HOST, help=f"server host (default: {DEFAULT_HOST})"
    )
    sp.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"server port (default: {DEFAULT_PORT})",
    )


def add_serve_parser(sub: argparse.Action) -> None:
    """Attach the ``serve`` subcommand family to the root parser."""
    p = sub.add_parser(  # type: ignore[attr-defined]
        "serve",
        help="simulation-as-a-service: async job server with dedupe and "
        "live alert streaming (see docs/SERVICE.md)",
    )
    ssub = p.add_subparsers(dest="serve_command", required=True)

    sp = ssub.add_parser("run", help="run the HTTP service in the foreground")
    _add_endpoint(sp)
    sp.add_argument(
        "--store", default=DEFAULT_SERVE_STORE, metavar="DIR",
        help=f"campaign result store (default: {DEFAULT_SERVE_STORE})",
    )
    sp.add_argument(
        "--lanes", type=int, default=1, metavar="N",
        help="parallel execution lanes (default: 1)",
    )
    sp.add_argument(
        "--access-log", default=None, metavar="FILE",
        help="append structured JSONL access log lines to FILE",
    )
    sp.set_defaults(func=cmd_serve_run)

    sp = ssub.add_parser(
        "submit",
        help="submit a JSON file (submission, spec, scenario, or bundle)",
    )
    sp.add_argument("file", help="JSON file to submit")
    _add_endpoint(sp)
    sp.add_argument(
        "--wait", action="store_true",
        help="stream the job to completion and print its result",
    )
    sp.set_defaults(func=cmd_serve_submit)

    sp = ssub.add_parser("get", help="GET a service path and print the body")
    sp.add_argument("path", help="path, e.g. /queue or /runs/<hash>/report")
    _add_endpoint(sp)
    sp.set_defaults(func=cmd_serve_get)

    sp = ssub.add_parser("cancel", help="cancel a queued job")
    sp.add_argument("job", help="job id as returned by submit")
    _add_endpoint(sp)
    sp.set_defaults(func=cmd_serve_cancel)

    sp = ssub.add_parser(
        "loadtest",
        help="prime + storm load test against a server "
        "(p50/p90/p99 latency, throughput, dedupe hit rate)",
    )
    _add_endpoint(sp)
    sp.add_argument(
        "--clients", type=int, default=1000, metavar="N",
        help="concurrent clients in the storm phase (default: 1000)",
    )
    sp.add_argument(
        "--requests", type=int, default=5, metavar="R",
        help="submissions per client (default: 5)",
    )
    sp.add_argument(
        "--pool", type=int, default=4, metavar="K",
        help="distinct specs in the submission pool (default: 4)",
    )
    sp.add_argument(
        "--preset", default="smoke",
        help="campaign preset the pool derives from (default: smoke)",
    )
    sp.add_argument(
        "--mode", choices=("dedupe", "cold"), default="dedupe",
        help="dedupe: prime + storm over a shared pool; cold: all-"
        "distinct specs, completion-timed (jobs/s — the lane-scaling "
        "number)",
    )
    sp.add_argument(
        "--self-hosted", action="store_true",
        help="start a private in-process server on a fresh port "
        "(uses --store) instead of targeting --host/--port",
    )
    sp.add_argument(
        "--lanes", type=int, default=1, metavar="N",
        help="execution lanes for --self-hosted (default: 1)",
    )
    sp.add_argument(
        "--exec-delay", type=float, default=0.0, metavar="SECONDS",
        help="--self-hosted only: emulate per-job blocking backend "
        "latency, so lane overlap is measurable on single-core hosts",
    )
    sp.add_argument(
        "--store", default=DEFAULT_SERVE_STORE, metavar="DIR",
        help="store for --self-hosted (default: "
        f"{DEFAULT_SERVE_STORE})",
    )
    sp.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write the full load report as JSON",
    )
    sp.set_defaults(func=cmd_serve_loadtest)
