"""Async client for the serve API: one connection, typed helpers.

Stdlib-only mirror of the server: a :class:`ServeClient` owns one
keep-alive connection (reconnecting on EOF), speaks just enough
HTTP/1.1 for the service — Content-Length requests, Content-Length or
chunked responses — and decodes the chunked JSONL job stream into
frame dicts.  The load generator drives hundreds of these
concurrently; tests and the CLI use the same code path as the load
test, so the numbers in EXPERIMENTS.md measure the real client.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from repro.serve.protocol import ServeError

__all__ = ["ClientError", "ServeClient"]

#: Response body cap: a dashboard is ~1 MB; nothing legitimate is 64.
MAX_RESPONSE_BYTES = 64 * 1024 * 1024


class ClientError(ServeError):
    """Transport- or protocol-level client failure."""


class ServeClient:
    """One logical client: lazily connected, keep-alive, reconnecting."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    # ------------------------------------------------------------ connection
    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = self._writer = None

    async def __aenter__(self) -> "ServeClient":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    # --------------------------------------------------------------- requests
    async def request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Any]:
        """One round trip; returns ``(status, parsed body)``.

        JSON bodies come back parsed, anything else as bytes.  Retries
        exactly once on a dead keep-alive connection (the server may
        have closed it between requests).
        """
        for attempt in (0, 1):
            try:
                return await self._request_once(method, path, payload)
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                await self.close()
                if attempt:
                    raise ClientError(
                        f"connection to {self.host}:{self.port} failed"
                    ) from None
        raise AssertionError("unreachable")

    async def _request_once(
        self, method: str, path: str, payload: Optional[Dict[str, Any]]
    ) -> Tuple[int, Any]:
        if self._writer is None:
            await self._connect()
        assert self._reader is not None and self._writer is not None
        body = (
            json.dumps(payload).encode("utf-8") if payload is not None else b""
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Content-Type: application/json\r\n"
            "Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        status, headers = await self._read_head()
        raw = await self._read_body(headers)
        if headers.get("connection", "").lower() == "close":
            await self.close()
        content_type = headers.get("content-type", "")
        # Order matters: "application/jsonl".startswith("application/json")
        # is true, so the multi-line stream type must be checked first.
        if content_type.startswith("application/jsonl"):
            return status, raw.decode("utf-8")
        if content_type.startswith("application/json"):
            text = raw.decode("utf-8")
            return (status, json.loads(text)) if text.strip() else (status, text)
        return status, raw

    async def _read_head(self) -> Tuple[int, Dict[str, str]]:
        assert self._reader is not None
        line = await self._reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        parts = line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ClientError(f"malformed status line: {line!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            raw = await self._reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        return status, headers

    async def _read_body(self, headers: Dict[str, str]) -> bytes:
        assert self._reader is not None
        if headers.get("transfer-encoding", "").lower() == "chunked":
            chunks: List[bytes] = []
            total = 0
            async for chunk in self._iter_chunks():
                total += len(chunk)
                if total > MAX_RESPONSE_BYTES:
                    raise ClientError("chunked response too large")
                chunks.append(chunk)
            return b"".join(chunks)
        length = int(headers.get("content-length", "0"))
        if length > MAX_RESPONSE_BYTES:
            raise ClientError(f"response of {length} bytes refused")
        return await self._reader.readexactly(length) if length else b""

    async def _iter_chunks(self) -> AsyncIterator[bytes]:
        assert self._reader is not None
        while True:
            size_line = await self._reader.readline()
            try:
                size = int(size_line.strip() or b"0", 16)
            except ValueError:
                raise ClientError(
                    f"malformed chunk size: {size_line!r}"
                ) from None
            if size == 0:
                await self._reader.readline()  # trailing CRLF
                return
            chunk = await self._reader.readexactly(size)
            await self._reader.readexactly(2)  # chunk CRLF
            yield chunk

    # ------------------------------------------------------------ api helpers
    async def submit(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """POST one submission; raises :class:`ClientError` on a 4xx."""
        status, body = await self.request("POST", "/submit", doc)
        if status != 200:
            raise ClientError(
                f"submit rejected ({status}): {body.get('error', body)}"
            )
        return body

    async def job(self, job_id: str) -> Dict[str, Any]:
        status, body = await self.request("GET", f"/jobs/{job_id}")
        if status != 200:
            raise ClientError(f"job {job_id} ({status}): {body}")
        return body

    async def cancel(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        return await self.request("POST", f"/jobs/{job_id}/cancel")

    async def queue(self) -> Dict[str, Any]:
        status, body = await self.request("GET", "/queue")
        if status != 200:
            raise ClientError(f"queue view failed ({status})")
        return body

    async def stream_job(self, job_id: str) -> List[Dict[str, Any]]:
        """All frames of a job's stream, blocking until it finishes.

        The server closes stream connections; a fresh connection is
        opened and this client's keep-alive socket is left untouched.
        """
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write(
                (
                    f"GET /jobs/{job_id}/stream HTTP/1.1\r\n"
                    f"Host: {self.host}:{self.port}\r\n"
                    "Content-Length: 0\r\n\r\n"
                ).encode("latin-1")
            )
            await writer.drain()
            saved_reader, self._reader = self._reader, reader
            try:
                status, headers = await self._read_head()
                if status != 200:
                    body = await self._read_body(headers)
                    raise ClientError(
                        f"stream of {job_id} failed ({status}): "
                        f"{body.decode('utf-8', 'replace').strip()}"
                    )
                text = (await self._read_body(headers)).decode("utf-8")
            finally:
                self._reader = saved_reader
            return [json.loads(line) for line in text.splitlines() if line]
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def wait(self, job_id: str) -> Dict[str, Any]:
        """Block until the job finishes; returns its final ``done`` frame."""
        frames = await self.stream_job(job_id)
        for frame in reversed(frames):
            if frame.get("type") == "done":
                return frame
        raise ClientError(f"stream of {job_id} ended without a done frame")
