"""Request tracing: trace/span IDs and the :func:`span` context manager.

A *trace* is one logical request (e.g. one ``Estimator.submit``); a
*span* is one timed phase within it.  IDs live in :mod:`contextvars`, so
spans nest naturally within a thread and every structured log record
emitted inside a span automatically carries the active
``trace_id``/``span_id`` (see :mod:`repro.obs.logging`).

The estimation service crosses threads (submit thread → dispatcher
thread → pool callback threads); :func:`bind_trace` re-enters a trace on
the far side of such a hop, which is how one request yields a single
connected span tree across the scheduler, the pool, and per-chunk trial
runs.

Span durations are also observed into the active metrics registry
(``obs_span_duration_seconds{span=...}``), so phase timings are
queryable without parsing logs.

Completed spans can additionally be fanned out to registered *span
sinks* (:func:`register_span_sink`) as plain-dict records — the feed the
JSONL exporter in :mod:`repro.obs.export` consumes, and the raw
material ``repro trace`` turns into Chrome
trace-event JSON.  Sinks are process-global (not contextvar-scoped) so
records emitted on pool callback threads still land; worker processes
use :func:`capture_spans` to *replace* any fork-inherited sinks with a
chunk-local buffer.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterator

from .metrics import LATENCY_BUCKETS, enabled, get_registry

__all__ = [
    "new_trace_id",
    "new_span_id",
    "current_trace_id",
    "current_span_id",
    "bind_trace",
    "span",
    "Span",
    "register_span_sink",
    "unregister_span_sink",
    "capture_spans",
    "emit_span_record",
    "have_span_sinks",
]

_trace_var: ContextVar[str | None] = ContextVar("repro_trace_id", default=None)
_span_var: ContextVar[str | None] = ContextVar("repro_span_id", default=None)


def new_trace_id() -> str:
    """A fresh 128-bit trace ID (hex)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span ID (hex)."""
    return os.urandom(8).hex()


def current_trace_id() -> str | None:
    """The active trace ID, if any."""
    return _trace_var.get()


def current_span_id() -> str | None:
    """The active span ID, if any."""
    return _span_var.get()


@contextmanager
def bind_trace(
    trace_id: str | None, span_id: str | None = None
) -> Iterator[None]:
    """Re-enter *trace_id* (and optionally a parent *span_id*) on this
    thread/context — the cross-thread continuation primitive."""
    t_token = _trace_var.set(trace_id)
    s_token = _span_var.set(span_id)
    try:
        yield
    finally:
        _span_var.reset(s_token)
        _trace_var.reset(t_token)


# --------------------------------------------------------------------- #
# span sinks: fan completed spans out as plain-dict records
# --------------------------------------------------------------------- #
SpanSink = Callable[[dict[str, Any]], None]

_sink_lock = threading.Lock()
_SINKS: list[SpanSink] = []


def register_span_sink(sink: SpanSink) -> None:
    """Add a callable that receives every completed span as a dict record.

    Record shape: ``{"name", "trace_id", "span_id", "parent_id", "ts"
    (epoch seconds at span start), "dur_s", "pid", "tid", "fields"}``.
    Sinks must be fast and must not raise; a raising sink is dropped.
    """
    with _sink_lock:
        if sink not in _SINKS:
            _SINKS.append(sink)


def unregister_span_sink(sink: SpanSink) -> None:
    """Remove a sink registered via :func:`register_span_sink` (no-op if
    absent)."""
    with _sink_lock:
        try:
            _SINKS.remove(sink)
        except ValueError:
            pass


def have_span_sinks() -> bool:
    """Whether any span sink is registered (record building is skipped
    entirely when not)."""
    return bool(_SINKS)


@contextmanager
def capture_spans(sink: SpanSink) -> Iterator[None]:
    """Make *sink* the **only** span sink for the duration.

    Unlike :func:`register_span_sink` this *replaces* the sink list —
    the point is worker-side isolation: a fork-started worker inherits
    the parent's sinks (e.g. an open ``--trace-file`` handle) and must
    not double-write to them.  The previous sink list is restored on
    exit.
    """
    global _SINKS
    with _sink_lock:
        saved = _SINKS
        _SINKS = [sink]
    try:
        yield
    finally:
        with _sink_lock:
            _SINKS = saved


def emit_span_record(record: dict[str, Any]) -> None:
    """Deliver one span record to every registered sink.

    Also the entry point for *forwarded* records (worker spans merged by
    the parent): the record is delivered as-is, preserving the worker's
    pid/tid/timestamps.
    """
    sinks = _SINKS
    if not sinks:
        return
    dead: list[SpanSink] = []
    for sink in sinks:
        try:
            sink(record)
        except Exception:
            dead.append(sink)
    for sink in dead:
        unregister_span_sink(sink)


class Span:
    """Handle yielded by :func:`span`; carries IDs and mutable fields."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "fields",
        "duration_s",
    )

    def __init__(
        self,
        name: str,
        trace_id: str | None,
        span_id: str | None,
        parent_id: str | None,
        fields: dict[str, Any],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.fields = fields
        self.duration_s: float | None = None

    def annotate(self, **fields: Any) -> None:
        """Attach extra fields reported on the span's completion event."""
        self.fields.update(fields)


@contextmanager
def span(name: str, *, level: str = "debug", **fields: Any) -> Iterator[Span]:
    """Time a phase; log its completion; observe its duration.

    Creates a trace ID if none is active, pushes a fresh span ID (the
    previous one becomes ``parent_id``), and on exit emits one ``span``
    log event — ``name``, ``duration_ms``, ``parent_id``, plus *fields*
    — and observes ``obs_span_duration_seconds{span=name}`` in the
    active registry.  No-op (cheap dummy handle) when observability is
    disabled.
    """
    if not enabled():
        yield Span(name, None, None, None, dict(fields))
        return
    trace_id = _trace_var.get() or new_trace_id()
    parent_id = _span_var.get()
    span_id = new_span_id()
    handle = Span(name, trace_id, span_id, parent_id, dict(fields))
    t_token = _trace_var.set(trace_id)
    s_token = _span_var.set(span_id)
    started_wall = time.time()
    started = time.perf_counter()
    try:
        yield handle
    finally:
        duration = time.perf_counter() - started
        handle.duration_s = duration
        _span_var.reset(s_token)
        _trace_var.reset(t_token)
        from .logging import get_logger  # deferred: logging imports spans

        get_logger("repro.obs.span").log(
            level,
            "span",
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            span=name,
            duration_ms=round(duration * 1e3, 3),
            **handle.fields,
        )
        get_registry().histogram(
            "obs_span_duration_seconds",
            "Wall-clock duration of instrumented spans",
            buckets=LATENCY_BUCKETS,
            labelnames=("span",),
        ).labels(span=name).observe(duration)
        if _SINKS:
            emit_span_record(
                {
                    "name": name,
                    "trace_id": trace_id,
                    "span_id": span_id,
                    "parent_id": parent_id,
                    "ts": started_wall,
                    "dur_s": duration,
                    "pid": os.getpid(),
                    "tid": threading.get_ident(),
                    "fields": dict(handle.fields),
                }
            )
