"""The sharded network front end: TCP/HTTP in, shard pipes out.

One asyncio process accepts newline-delimited JSON over TCP (or single
requests over minimal HTTP) and fans them across N ``serve`` shard
subprocesses (:mod:`repro.frontend.shards`).  Every request runs the
same pipeline:

1. **Parse** via :func:`repro.frontend.protocol.parse_request_line` —
   malformed input never reaches a shard, it turns into a structured
   per-line error right here.
2. **Rate-limit** per client (token bucket keyed by peer address).
3. **Route** by the graph's canonical spec through rendezvous hashing
   (:mod:`repro.frontend.routing`) so one shard owns each graph's
   cache and evidence.
4. **Admit or shed** against the peak-hold load estimate
   (:mod:`repro.frontend.admission`): a full shard queue is a hard
   shed, and above the shed threshold the controller drops the
   deterministic fraction the held peak says we cannot afford —
   returning ``overloaded`` immediately instead of stalling the event
   loop behind a queue that cannot drain.
5. **Forward** the raw request line to the owning shard and relay its
   response, annotated with ``"shard": <index>`` so callers (and the
   bench warm-route gate) can observe routing stability.

Everything the admission plane decides is visible in metrics:
``frontend_admitted/shed/rate_limited_total``, per-shard queue-depth
gauges, and the admission controller's peak/current load — all flowing
through the standard registry into stats snapshots, ``repro health``,
and ``repro top``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import socket
import time
from dataclasses import dataclass, field
from typing import Any, IO, Mapping

from ..obs.dashboard import snapshot_from_registry
from ..obs.metrics import MetricsRegistry, get_registry
from .admission import AdmissionController, PeakHoldEstimator, TokenBucket
from .protocol import DEFAULT_MAX_LINE_BYTES, error_payload, parse_request_line
from .routing import RendezvousRouter
from .shards import ShardClient, ShardUnavailable, shard_argv

__all__ = [
    "Frontend",
    "FrontendConfig",
    "ListenError",
    "run_tcp_server",
    "run_http_server",
]


class ListenError(OSError):
    """The front end's socket could not be bound; no shard was started.
    ``strerror`` reads ``cannot listen on HOST:PORT: <reason>``."""


#: At most this many distinct clients keep a live token bucket; beyond
#: it the oldest-inserted bucket is evicted (a fresh bucket starts full,
#: so eviction can only ever be generous to a client, never unfair).
_MAX_CLIENT_BUCKETS = 4096


@dataclass
class FrontendConfig:
    """Knobs for the front end (CLI flags map 1:1 onto these)."""

    shards: int = 1
    shard_jobs: int = 1
    cache_size: int = 128
    mode: str = "auto"
    include_counts: bool = True
    queue_limit: int = 64
    rate_limit: float = 0.0  # per-client requests/s; 0 disables
    rate_burst: float | None = None
    admission_half_life_s: float = 30.0
    shed_threshold: float = 0.85
    max_line_bytes: int = DEFAULT_MAX_LINE_BYTES
    max_restarts: int = 3
    inherit_shard_stderr: bool = True
    shard_log_level: str | None = None
    extra_shard_args: list[str] = field(default_factory=list)


def _error_code(payload: Mapping[str, Any]) -> str:
    """The machine code out of either error shape (v1 sibling, v2 nested)."""
    err = payload.get("error")
    if isinstance(err, Mapping):
        return str(err.get("code", "internal"))
    return str(payload.get("code", "internal"))


class Frontend:
    """Shard fan-out plus admission control behind one `handle_line`."""

    def __init__(
        self,
        config: FrontendConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or FrontendConfig()
        cfg = self.config
        self.registry = registry if registry is not None else get_registry()
        self.router = RendezvousRouter(cfg.shards)
        argv = shard_argv(
            jobs=cfg.shard_jobs,
            cache_size=cfg.cache_size,
            mode=cfg.mode,
            include_counts=cfg.include_counts,
            log_level=cfg.shard_log_level,
        ) + list(cfg.extra_shard_args)
        self.shards = [
            ShardClient(
                i,
                argv,
                queue_limit=cfg.queue_limit,
                max_restarts=cfg.max_restarts,
                inherit_stderr=cfg.inherit_shard_stderr,
            )
            for i in range(cfg.shards)
        ]
        self.admission = AdmissionController(
            PeakHoldEstimator(half_life_s=cfg.admission_half_life_s),
            shed_threshold=cfg.shed_threshold,
        )
        self._buckets: dict[str, TokenBucket] = {}
        self.requests_served = 0
        self._restarts_recorded = 0
        #: Set by run_tcp_server/run_http_server once the socket binds
        #: (resolves port 0 to the real ephemeral port for callers).
        self.bound_port: int | None = None

        reg = self.registry
        self._m_requests = reg.counter(
            "frontend_requests_total", "Request lines received by the front end"
        )
        self._m_admitted = reg.counter(
            "frontend_admitted_total", "Requests admitted and forwarded to a shard"
        )
        self._m_shed = reg.counter(
            "frontend_shed_total", "Requests shed by admission control"
        )
        self._m_rate_limited = reg.counter(
            "frontend_rate_limited_total", "Requests rejected by per-client rate limits"
        )
        self._m_errors = reg.counter(
            "frontend_errors_total",
            "Structured front-end errors by code",
            labelnames=("code",),
        )
        self._m_restarts = reg.counter(
            "frontend_shard_restarts_total", "Shard subprocess respawns"
        )
        self._m_depth = reg.gauge(
            "frontend_shard_queue_depth",
            "In-flight requests per shard",
            labelnames=("shard",),
        )
        self._m_saturation = reg.gauge(
            "frontend_queue_saturation",
            "Worst shard queue depth over capacity (1.0 == a queue is full)",
        )
        self._m_peak = reg.gauge(
            "frontend_admission_peak_load", "Peak-hold load estimate (decayed)"
        )
        self._m_current = reg.gauge(
            "frontend_admission_current_load", "Most recent raw load sample"
        )
        self._m_latency = reg.histogram(
            "frontend_request_latency_seconds",
            "End-to-end latency of admitted requests at the front end",
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        await asyncio.gather(*(shard.start() for shard in self.shards))

    async def close(self) -> None:
        self._record_restarts()
        await asyncio.gather(*(shard.close() for shard in self.shards))

    def _record_restarts(self) -> None:
        total = sum(s.restarts for s in self.shards)
        if total > self._restarts_recorded:
            self._m_restarts.inc(total - self._restarts_recorded)
            self._restarts_recorded = total

    # ------------------------------------------------------------------ #
    # admission plane
    # ------------------------------------------------------------------ #
    def _bucket_for(self, client: str) -> TokenBucket:
        bucket = self._buckets.get(client)
        if bucket is None:
            if len(self._buckets) >= _MAX_CLIENT_BUCKETS:
                self._buckets.pop(next(iter(self._buckets)))
            bucket = TokenBucket(self.config.rate_limit, self.config.rate_burst)
            self._buckets[client] = bucket
        return bucket

    def _observe_load(self, shard: ShardClient) -> None:
        self._record_restarts()
        self.admission.observe(shard.load)
        self._m_depth.labels(shard=str(shard.index)).set(shard.depth)
        self._m_saturation.set(max(s.load for s in self.shards))
        self._m_peak.set(self.admission.peak_load)
        self._m_current.set(self.admission.current_load)

    def _fail(self, payload: dict[str, Any]) -> str:
        self._m_errors.labels(code=_error_code(payload)).inc()
        return json.dumps(payload)

    # ------------------------------------------------------------------ #
    # the request pipeline
    # ------------------------------------------------------------------ #
    async def handle_line(
        self,
        raw: str,
        *,
        client: str | None = None,
        lineno: int | None = None,
    ) -> str:
        """One request line in, one response line out (never raises)."""
        self._m_requests.inc()
        parsed = parse_request_line(
            raw, lineno=lineno, max_bytes=self.config.max_line_bytes
        )
        if not parsed.ok:
            assert parsed.error is not None
            return self._fail(parsed.error)
        request = parsed.request
        assert request is not None

        if self.config.rate_limit > 0 and client is not None:
            if not self._bucket_for(client).allow():
                self._m_rate_limited.inc()
                return self._fail(
                    error_payload(
                        "rate_limited",
                        f"client {client} exceeded "
                        f"{self.config.rate_limit:g} requests/s",
                        version=parsed.version,
                        line=lineno,
                        request_id=request.id,
                    )
                )

        shard = self.shards[self.router.shard_for(request.graph_spec or "")]
        self._observe_load(shard)
        queue_full = shard.depth >= self.config.queue_limit
        if queue_full or not self.admission.admit():
            self._m_shed.inc()
            reason = (
                f"shard {shard.index} queue is full "
                f"({shard.depth}/{self.config.queue_limit})"
                if queue_full
                else f"peak-hold load {self.admission.peak_load:.2f} exceeds "
                f"shed threshold {self.config.shed_threshold:g}"
            )
            return self._fail(
                error_payload(
                    "overloaded",
                    reason,
                    version=parsed.version,
                    line=lineno,
                    request_id=request.id,
                )
            )

        self._m_admitted.inc()
        t0 = time.perf_counter()
        try:
            response = await shard.submit(raw.strip())
        except ShardUnavailable as exc:
            return self._fail(
                error_payload(
                    "shard_unavailable",
                    str(exc),
                    version=parsed.version,
                    line=lineno,
                    request_id=request.id,
                )
            )
        finally:
            self._m_depth.labels(shard=str(shard.index)).set(shard.depth)
        self._m_latency.observe(time.perf_counter() - t0)
        self.requests_served += 1
        return self._annotate(response, shard.index)

    @staticmethod
    def _annotate(response: str, shard: int) -> str:
        """Stamp the owning shard onto the relayed response line."""
        try:
            obj = json.loads(response)
        except (json.JSONDecodeError, TypeError):
            return response
        if isinstance(obj, dict):
            obj["shard"] = shard
            return json.dumps(obj)
        return response

    def stats_snapshot(self) -> dict[str, Any]:
        """A stats-event-shaped snapshot (``repro top`` / ``health`` food)."""
        return snapshot_from_registry(
            self.registry, requests_served=self.requests_served
        )


# ---------------------------------------------------------------------- #
# TCP plane
# ---------------------------------------------------------------------- #
class _LineReader:
    """Byte-capped line reader with skip-until-newline resync.

    ``asyncio.StreamReader.readuntil`` raises ``LimitOverrunError``
    without consuming the oversized data, which makes resyncing to the
    next request awkward; this reader instead *drops* the oversized
    line (counting what it drops for the error message) and keeps the
    connection alive on the next newline.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        max_bytes: int,
        chunk: int = 1 << 16,
    ) -> None:
        self._reader = reader
        self._max = max_bytes
        self._chunk = chunk
        self._buf = bytearray()
        self._eof = False

    async def readline(self) -> tuple[str, bool] | None:
        """Next line as ``(text, oversized)``; ``None`` at EOF.

        Oversized lines come back as ``(str(dropped_bytes), True)``
        after resyncing past their newline.
        """
        while True:
            nl = self._buf.find(b"\n")
            if nl >= 0:
                line = bytes(self._buf[:nl])
                del self._buf[: nl + 1]
                return line.decode("utf-8", "replace"), False
            if self._max and len(self._buf) > self._max:
                return str(await self._resync()), True
            if self._eof:
                if self._buf:
                    line = bytes(self._buf)
                    self._buf.clear()
                    return line.decode("utf-8", "replace"), False
                return None
            data = await self._reader.read(self._chunk)
            if not data:
                self._eof = True
            else:
                self._buf.extend(data)

    async def _resync(self) -> int:
        """Discard up to the next newline; returns bytes dropped."""
        dropped = len(self._buf)
        self._buf.clear()
        while True:
            nl_data = await self._reader.read(self._chunk)
            if not nl_data:
                self._eof = True
                return dropped
            nl = nl_data.find(b"\n")
            if nl >= 0:
                dropped += nl
                self._buf.extend(nl_data[nl + 1 :])
                return dropped
            dropped += len(nl_data)


async def _handle_tcp_connection(
    frontend: Frontend,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    peer = writer.get_extra_info("peername")
    client = str(peer[0]) if isinstance(peer, tuple) and peer else "unknown"
    lines = _LineReader(reader, frontend.config.max_line_bytes)
    write_lock = asyncio.Lock()
    tasks: set[asyncio.Task[None]] = set()

    async def reply(payload: str) -> None:
        async with write_lock:
            writer.write(payload.encode() + b"\n")
            await writer.drain()

    async def serve_one(raw: str, lineno: int) -> None:
        out = await frontend.handle_line(raw, client=client, lineno=lineno)
        with contextlib.suppress(ConnectionError):
            await reply(out)

    lineno = 0
    try:
        while True:
            item = await lines.readline()
            if item is None:
                break
            raw, oversized = item
            lineno += 1
            if oversized:
                payload = error_payload(
                    "line_too_large",
                    f"request line of {raw} bytes exceeds the "
                    f"{frontend.config.max_line_bytes}-byte limit",
                    line=lineno,
                    max_bytes=frontend.config.max_line_bytes,
                )
                frontend._m_requests.inc()
                with contextlib.suppress(ConnectionError):
                    await reply(frontend._fail(payload))
                continue
            if not raw.strip() or raw.lstrip().startswith("#"):
                continue
            # Pipelined clients keep multiple lines in flight; responses
            # carry the request "id" so order does not matter to them.
            task = asyncio.create_task(serve_one(raw, lineno))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
    finally:
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        with contextlib.suppress(ConnectionError):
            writer.close()
            await writer.wait_closed()


async def _stats_loop(frontend: Frontend, stream: IO[str], interval: float) -> None:
    while True:
        await asyncio.sleep(interval)
        print(json.dumps(frontend.stats_snapshot()), file=stream, flush=True)


async def _serve(
    frontend: Frontend,
    handler,
    host: str,
    port: int,
    ready: asyncio.Event | None,
    stats_stream: IO[str] | None,
    stats_interval: float,
) -> None:
    """Bind, start the shards, then listen with *handler* until cancelled.

    The socket binds before any shard starts, so a taken port fails at
    once with :class:`ListenError` and nothing to tear down; it listens
    only once every shard is up.
    """
    try:
        server = await asyncio.start_server(
            lambda r, w: handler(frontend, r, w), host, port, start_serving=False
        )
    except OSError as exc:
        # asyncio rewords bind errors; report the system's own reason
        if isinstance(exc, socket.gaierror) or not exc.errno:
            reason = exc.strerror or str(exc)
        else:
            reason = os.strerror(exc.errno)
        raise ListenError(exc.errno, f"cannot listen on {host}:{port}: {reason}")
    # Port 0 binds an ephemeral port; publish the real one for callers.
    frontend.bound_port = server.sockets[0].getsockname()[1]
    stats_task: asyncio.Task[None] | None = None
    try:
        async with server:
            await frontend.start()
            await server.start_serving()
            if stats_stream is not None:
                stats_task = asyncio.create_task(
                    _stats_loop(frontend, stats_stream, stats_interval)
                )
            if ready is not None:
                ready.set()
            await server.serve_forever()
    finally:
        if stats_task is not None:
            stats_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await stats_task
        await frontend.close()


async def run_tcp_server(
    frontend: Frontend,
    host: str,
    port: int,
    *,
    ready: asyncio.Event | None = None,
    stats_stream: IO[str] | None = None,
    stats_interval: float = 2.0,
) -> None:
    """Serve the line protocol over TCP until cancelled."""
    await _serve(
        frontend, _handle_tcp_connection, host, port,
        ready, stats_stream, stats_interval,
    )


# ---------------------------------------------------------------------- #
# HTTP plane (minimal, single-request)
# ---------------------------------------------------------------------- #
_HTTP_STATUS = {
    "bad_json": 400,
    "unsupported_version": 400,
    "bad_request": 400,
    "line_too_large": 413,
    "rate_limited": 429,
    "overloaded": 503,
    "shard_unavailable": 503,
    "internal": 500,
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _http_response(
    status: int, body: bytes, content_type: str = "application/json"
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode() + body


async def _handle_http_connection(
    frontend: Frontend,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    peer = writer.get_extra_info("peername")
    client = str(peer[0]) if isinstance(peer, tuple) and peer else "unknown"
    try:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            writer.write(_http_response(400, b'{"error": "bad request line"}'))
            return
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            if ":" in line:
                k, v = line.split(":", 1)
                headers[k.strip().lower()] = v.strip()

        if method == "GET" and path == "/metrics":
            writer.write(
                _http_response(
                    200,
                    frontend.registry.render_prometheus().encode(),
                    content_type="text/plain; version=0.0.4",
                )
            )
            return
        if method == "GET" and path == "/healthz":
            from ..obs.health import evaluate_health

            report = evaluate_health(frontend.stats_snapshot())
            status = 200 if report.status != "crit" else 503
            writer.write(
                _http_response(status, json.dumps(report.to_json()).encode())
            )
            return
        if method != "POST" or path not in ("/estimate", "/"):
            writer.write(
                _http_response(
                    405 if path in ("/estimate", "/", "/metrics", "/healthz") else 404,
                    b'{"error": "POST /estimate, GET /metrics, GET /healthz"}',
                )
            )
            return

        length = int(headers.get("content-length", "0") or "0")
        if length > frontend.config.max_line_bytes:
            payload = error_payload(
                "line_too_large",
                f"request body of {length} bytes exceeds the "
                f"{frontend.config.max_line_bytes}-byte limit",
                max_bytes=frontend.config.max_line_bytes,
            )
            writer.write(_http_response(413, json.dumps(payload).encode()))
            return
        body = (await reader.readexactly(length)).decode("utf-8", "replace")
        out = await frontend.handle_line(body.replace("\n", " "), client=client)
        obj = json.loads(out)
        status = 200
        if isinstance(obj, dict) and "error" in obj:
            status = _HTTP_STATUS.get(_error_code(obj), 500)
        writer.write(_http_response(status, out.encode()))
    except (asyncio.IncompleteReadError, ConnectionError, ValueError):
        pass
    finally:
        with contextlib.suppress(ConnectionError):
            writer.close()
            await writer.wait_closed()


async def run_http_server(
    frontend: Frontend,
    host: str,
    port: int,
    *,
    ready: asyncio.Event | None = None,
    stats_stream: IO[str] | None = None,
    stats_interval: float = 2.0,
) -> None:
    """Serve single-request HTTP (POST /estimate) until cancelled."""
    await _serve(
        frontend, _handle_http_connection, host, port,
        ready, stats_stream, stats_interval,
    )
