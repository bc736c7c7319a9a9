"""Hand-rolled asyncio HTTP/1.1 front end for the planner service.

Pure stdlib (``asyncio.start_server``) — no web framework, so the
service rides the same zero-dependency tier as the rest of the
library.  One connection serves one request (``Connection: close``),
which keeps the parser trivial and is plenty for a planning service
whose unit of work is a sweep, not a byte.

Routes (all JSON, every body carries ``schema_version``)::

    GET  /v1/healthz              liveness + store stats
    POST /v1/<kind>               execute a request (kind = plan,
                                  verify, check-model, evaluate,
                                  capacity, simulate)
         ?mode=async              -> 202 + job descriptor immediately
         ?timeout=<seconds>       per-request deadline override
         X-Repro-Tenant: <id>     quota accounting key
    GET  /v1/jobs/<id>            poll a job descriptor
    GET  /v1/jobs/<id>/events     Server-Sent Events progress stream

Request bodies are the ``to_dict`` form of the typed dataclasses in
:mod:`repro.api.types`; the ``kind`` key may be omitted because the
path already names it.  Error payloads are
:class:`repro.api.ErrorInfo` objects; the HTTP status derives from the
error ``code`` (see :data:`ERROR_STATUS`).
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qsl, urlsplit

from repro.api import SCHEMA_VERSION, ErrorInfo, RequestError
from repro.api.types import REQUESTS, JsonDict
from repro.planner import SweepCache
from repro.service.config import ServiceConfig
from repro.service.jobs import Job, JobStore, QuotaExceeded

#: Error ``code`` -> HTTP status for codes minted outside
#: :class:`RequestError` (which carries its own ``http_status``).
ERROR_STATUS = {
    "timeout": 504,
    "quota-exceeded": 429,
    "not-found": 404,
    "internal": 500,
    "schema-mismatch": 400,
    "schedule-rejected": 422,
    "capacity-rejected": 422,
}

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    422: "Unprocessable Content",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}

_MAX_BODY_BYTES = 8 * 1024 * 1024


def error_status(error: ErrorInfo) -> int:
    """HTTP status for a structured error payload."""
    status = error.detail.get("http_status")
    if isinstance(status, int):
        return status
    return ERROR_STATUS.get(error.code, 400)


class _HttpRequest:
    def __init__(
        self,
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        parts = urlsplit(target)
        self.path = parts.path
        self.query = dict(parse_qsl(parts.query))
        self.headers = headers
        self.body = body

    @property
    def tenant(self) -> str:
        return self.headers.get("x-repro-tenant", "default")

    def timeout_s(self) -> float | None:
        raw = self.query.get("timeout")
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            raise RequestError(
                f"timeout={raw!r} is not a number", code="bad-timeout"
            ) from None
        if not value > 0.0:  # also rejects nan
            raise RequestError(
                f"timeout must be positive, got {raw!r}", code="bad-timeout"
            )
        return value


class PlannerService:
    """The asyncio server: parse, route, respond (or stream)."""

    def __init__(
        self, config: ServiceConfig | None = None, *,
        cache: SweepCache | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.store = JobStore(self.config, cache=cache)
        self._server: asyncio.AbstractServer | None = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        if self.config.port == 0:
            sockets = self._server.sockets or []
            if sockets:
                self.config.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.store.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    @property
    def address(self) -> str:
        return f"http://{self.config.host}:{self.config.port}"

    # -- connection handling --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await self._read_request(reader)
                if request is not None:
                    await self._dispatch(request, writer)
            except RequestError as exc:
                await self._send_json(
                    writer, exc.http_status, exc.to_error().to_dict()
                )
        except ConnectionError:  # pragma: no cover - client went away
            pass
        except Exception as exc:  # pragma: no cover - defensive
            error = ErrorInfo(
                code="internal", message=f"{type(exc).__name__}: {exc}"
            )
            try:
                await self._send_json(writer, 500, error.to_dict())
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> _HttpRequest | None:
        # One deadline bounds the whole read: a client that stalls
        # mid-request is answered, not waited on forever.
        deadline = self.config.request_timeout_s
        try:
            return await asyncio.wait_for(self._read(reader), deadline)
        except asyncio.TimeoutError:
            message = f"request not received within {deadline:g}s"
            raise RequestError(message, code="timeout", http_status=408) from None

    async def _read(self, reader: asyncio.StreamReader) -> _HttpRequest | None:
        headers: dict[str, str] = {}
        try:
            request_line = await reader.readline()
            if not request_line:
                return None
            method, target, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
            while (line := await reader.readline()) not in (b"\r\n", b"\n", b""):
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
        except ValueError:  # too few fields, or a line over the stream limit
            raise RequestError("malformed request head") from None
        raw = headers.get("content-length", "0") or "0"
        if not (raw.isascii() and raw.isdigit()):
            raise RequestError(f"Content-Length {raw[:32]!r} is not a length")
        length = int(raw)
        if length > _MAX_BODY_BYTES:
            raise RequestError(f"body too large ({length} bytes)")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            message = f"body truncated at {len(exc.partial)} of {length} bytes"
            raise RequestError(message) from None
        try:
            return _HttpRequest(method.upper(), target, headers, body)
        except ValueError as exc:  # urlsplit: e.g. an unclosed "[" host
            raise RequestError(f"malformed request target: {exc}") from None

    # -- routing --------------------------------------------------------

    async def _dispatch(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        path = request.path.rstrip("/") or "/"
        if path == "/v1/healthz" and request.method == "GET":
            await self._send_json(
                writer,
                200,
                {
                    "ok": True,
                    "schema_version": SCHEMA_VERSION,
                    "stats": self.store.stats(),
                },
            )
            return
        if path.startswith("/v1/jobs/"):
            await self._handle_jobs(request, path, writer)
            return
        if path.startswith("/v1/"):
            kind = path[len("/v1/") :]
            if kind in REQUESTS:
                if request.method != "POST":
                    raise RequestError(
                        f"{path} only accepts POST",
                        code="method-not-allowed",
                        http_status=405,
                    )
                await self._handle_execute(request, kind, writer)
                return
        await self._send_error(
            writer,
            ErrorInfo(
                code="not-found",
                message=f"no route for {request.method} {request.path}",
                detail={"known": sorted(f"/v1/{k}" for k in REQUESTS)},
            ),
        )

    async def _handle_execute(
        self, request: _HttpRequest, kind: str, writer: asyncio.StreamWriter
    ) -> None:
        if request.body:
            try:
                data = json.loads(request.body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError, RecursionError) as exc:
                raise RequestError(
                    f"payload is not valid JSON: {exc}"
                ) from None
            if not isinstance(data, dict):
                raise RequestError("payload must be a JSON object")
        else:
            data = {}
        data.setdefault("kind", kind)
        if data["kind"] != kind:
            raise RequestError(
                f"body kind {data['kind']!r} does not match endpoint "
                f"{kind!r}"
            )
        timeout_s = request.timeout_s()
        api_request = REQUESTS[kind].from_dict(data)
        try:
            job = self.store.submit(api_request, tenant=request.tenant)
        except QuotaExceeded as exc:
            await self._send_error(writer, exc.to_error())
            return
        except RecursionError:  # fingerprinting a payload nested too deep
            raise RequestError("payload nests too deeply") from None
        if request.query.get("mode") == "async":
            await self._send_json(writer, 202, job.to_dict())
            return
        result = await self.store.wait(job, timeout_s=timeout_s)
        if isinstance(result, ErrorInfo):
            await self._send_error(writer, result)
        else:
            # Encoded once by the job, whoever else is waiting on it.
            assert job.body is not None
            await self._send_raw(writer, 200, job.body)

    async def _handle_jobs(
        self, request: _HttpRequest, path: str, writer: asyncio.StreamWriter
    ) -> None:
        if request.method != "GET":
            raise RequestError(
                "job endpoints only accept GET",
                code="method-not-allowed",
                http_status=405,
            )
        rest = path[len("/v1/jobs/") :]
        job_id, _, tail = rest.partition("/")
        job = self.store.get(job_id)
        if job is None:
            await self._send_error(
                writer,
                ErrorInfo(
                    code="not-found", message=f"no job {job_id!r}"
                ),
            )
            return
        if tail == "":
            await self._send_json(writer, 200, job.to_dict())
        elif tail == "events":
            await self._stream_events(job, writer, request.timeout_s())
        else:
            await self._send_error(
                writer,
                ErrorInfo(
                    code="not-found",
                    message=f"no job sub-resource {tail!r}",
                ),
            )

    # -- SSE ------------------------------------------------------------

    async def _stream_events(
        self,
        job: Job,
        writer: asyncio.StreamWriter,
        timeout_s: float | None,
    ) -> None:
        deadline = (
            timeout_s
            if timeout_s is not None
            else self.config.request_timeout_s
        )
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        queue = job.subscribe()
        loop = asyncio.get_running_loop()
        end = loop.time() + (deadline or 0.0)
        while True:
            remaining = end - loop.time() if deadline else None
            if remaining is not None and remaining <= 0.0:
                payload = timeout_sse(job, deadline or 0.0)
                writer.write(_sse("error", payload))
                break
            try:
                item = await asyncio.wait_for(queue.get(), remaining)
            except asyncio.TimeoutError:
                payload = timeout_sse(job, deadline or 0.0)
                writer.write(_sse("error", payload))
                break
            if item is None:
                writer.write(_sse("done", job.to_dict()))
                break
            writer.write(_sse("obs", item))
            await writer.drain()
        await writer.drain()

    # -- responses ------------------------------------------------------

    async def _send_error(
        self, writer: asyncio.StreamWriter, error: ErrorInfo
    ) -> None:
        await self._send_json(
            writer, error_status(error), error.to_dict()
        )

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: JsonDict
    ) -> None:
        body = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode()
        await self._send_raw(writer, status, body)

    async def _send_raw(
        self, writer: asyncio.StreamWriter, status: int, body: bytes
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()


def timeout_sse(job: Job, deadline: float) -> JsonDict:
    """The SSE ``error`` payload when a stream outlives its deadline."""
    from repro.service.jobs import timeout_error

    return timeout_error(job.job_id, deadline).to_dict()


def _sse(event: str, payload: JsonDict) -> bytes:
    data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return f"event: {event}\ndata: {data}\n\n".encode()


__all__ = [
    "ERROR_STATUS",
    "PlannerService",
    "error_status",
]
