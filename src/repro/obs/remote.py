"""Cross-process telemetry plane (``repro.obs.remote``).

Spans and metrics are contextvar-scoped, which means they historically
died at the :class:`~repro.analysis.montecarlo.TrialPool` boundary: a
chunk dispatched to a worker process ran with no trace context, its
engine observations landed in the *worker's* default registry, and the
parent never saw either.  This module is the bridge:

* :class:`TraceContext` — the picklable ``(trace_id, span_id)`` pair the
  pool ships with every chunk; workers re-enter it via :func:`use_trace`
  so estimator → scheduler → worker-chunk → engine-phase spans form one
  connected tree under both ``fork`` and ``spawn`` start methods.
* :func:`run_chunk_with_telemetry` — the worker-side harness.  It binds
  a **fresh** :class:`~repro.obs.metrics.MetricsRegistry` (so what it
  exports afterwards *is* the chunk's delta — nothing to subtract, and
  fork-inherited parent counts can never leak in), a
  :class:`~repro.obs.profile.PhaseProfiler`, and a chunk-local span
  buffer (:func:`~repro.obs.spans.capture_spans` *replaces* any
  inherited sinks, so a fork-started worker cannot double-write the
  parent's ``--trace-file``).  Everything is piggybacked on the chunk
  result as a :class:`ChunkResult` — no extra IPC channel.
* :class:`RemoteTelemetry` — the parent-side merger.  ``absorb`` folds a
  worker's metric delta into the serving registry under a ``worker``
  label and forwards the worker's span records to the local sinks.  The
  delta travels as :meth:`~repro.obs.metrics.MetricsRegistry.export` raw
  state (label-value tuples, per-bucket counts) and merges with each
  metric's ``merge`` — counters add, gauges adopt, histograms add their
  buckets exactly and refuse another bucket layout — with no text
  rendering in the worker and no parsing in the parent.  Chunk IDs
  are remembered, so absorbing the same chunk twice is idempotent: a
  worker set re-sends a dead worker's unanswered packet under its chunk
  ID, so should both copies ever answer, the chunk still merges once.

Every :class:`~repro.analysis.montecarlo.TrialPool` chunk, inline or in
a worker process, runs under this one harness.  The plane follows
:func:`~repro.obs.metrics.set_enabled`: with observability off the
harness is a bare call that ships a :class:`ChunkResult` without
telemetry, and ``absorb`` merges nothing.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from .metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    enabled,
    use_registry,
)
from .profile import PhaseProfiler, use_profiler
from .spans import (
    bind_trace,
    capture_spans,
    current_span_id,
    current_trace_id,
    emit_span_record,
    new_span_id,
    span,
)

__all__ = [
    "TraceContext",
    "current_trace_context",
    "use_trace",
    "new_chunk_id",
    "ChunkTelemetry",
    "ChunkResult",
    "run_chunk_with_telemetry",
    "merge_worker_snapshot",
    "RemoteTelemetry",
]

@dataclass(frozen=True)
class TraceContext:
    """The ambient trace position, picklable for the pool wire.

    ``span_id`` is the would-be *parent* of whatever the receiving side
    opens next — for a chunk that is the dispatching ``scheduler.dispatch``
    span, so worker chunk spans attach under it in the exported tree.
    """

    trace_id: str | None = None
    span_id: str | None = None


def current_trace_context() -> TraceContext:
    """Capture the calling context's trace position (possibly empty)."""
    return TraceContext(current_trace_id(), current_span_id())


@contextmanager
def use_trace(ctx: TraceContext | None) -> Iterator[None]:
    """Re-enter *ctx* on this side of a process/thread hop.

    Always binds — an empty/``None`` context still *clears* whatever
    trace state a fork-started worker inherited from its parent, so a
    chunk never attaches to a stale request's tree.
    """
    if ctx is None:
        ctx = TraceContext()
    with bind_trace(ctx.trace_id, ctx.span_id):
        yield


def new_chunk_id() -> str:
    """A fresh chunk identity (64-bit hex) for merge dedup."""
    return os.urandom(8).hex()


@dataclass
class ChunkTelemetry:
    """Everything a worker observed while executing one chunk."""

    chunk_id: str
    worker: str
    metrics: list[tuple]  # MetricsRegistry.export() of the chunk's delta
    spans: list[dict[str, Any]] = field(default_factory=list)


@dataclass
class ChunkResult:
    """A chunk's payload plus its piggybacked telemetry (or ``None``)."""

    value: Any
    telemetry: ChunkTelemetry | None = None


def _synth_phase_spans(
    report: Mapping[str, Any],
    trace_id: str | None,
    parent_id: str | None,
    started_wall: float,
    pid: int,
    tid: int,
) -> list[dict[str, Any]]:
    """Render a profiler report as engine-phase span records.

    Per-call spans inside the engines would dominate the work being
    measured, so the profiler only keeps (calls, total) per phase; this
    lays those aggregates out sequentially from the chunk's start under
    the chunk span — a faithful *breakdown* (exact totals), not a
    faithful *timeline* (no per-call boundaries).
    """
    records: list[dict[str, Any]] = []
    offset = 0.0
    for name, cell in report.get("phases", {}).items():
        total = float(cell.get("total_s", 0.0))
        records.append(
            {
                "name": "phase." + name,
                "trace_id": trace_id,
                "span_id": new_span_id(),
                "parent_id": parent_id,
                "ts": started_wall + offset,
                "dur_s": total,
                "pid": pid,
                "tid": tid,
                "fields": {"calls": cell.get("calls", 0), "synthetic": True},
            }
        )
        offset += total
    return records


def run_chunk_with_telemetry(
    fn: Callable[[], Any],
    ctx: TraceContext | None,
    chunk_id: str,
    *,
    algorithm: str = "",
    trials: int = 0,
    vectorized: bool = False,
) -> ChunkResult:
    """Execute *fn* inside the worker-side telemetry harness.

    Re-enters *ctx*, binds a fresh delta registry + profiler + span
    buffer, runs the chunk under a ``pool.chunk`` span, and returns the
    chunk value together with the delta registry's export and captured
    span records.  With observability disabled this is a bare call with no
    telemetry attached.
    """
    if not enabled():
        return ChunkResult(fn())
    delta = MetricsRegistry()
    captured: list[dict[str, Any]] = []
    prof = PhaseProfiler()
    worker = f"pid:{os.getpid()}"
    started_wall = time.time()
    started = time.perf_counter()
    with use_trace(ctx), use_registry(delta), capture_spans(captured.append):
        with use_profiler(prof):
            with span(
                "pool.chunk",
                algorithm=algorithm,
                trials=trials,
                vectorized=vectorized,
                worker=worker,
            ) as chunk_span:
                value = fn()
    elapsed = time.perf_counter() - started
    prof.flush_to_registry(delta)
    delta.histogram(
        "worker_chunk_seconds",
        "Wall-clock per chunk executed in this worker",
        buckets=LATENCY_BUCKETS,
        labelnames=("algorithm",),
    ).labels(algorithm=algorithm).observe(elapsed)
    if trials:
        delta.counter(
            "worker_trials_total",
            "Trials executed in this worker",
            labelnames=("algorithm",),
        ).labels(algorithm=algorithm).inc(trials)
        delta.histogram(
            "worker_trials_per_chunk",
            "Trials per chunk executed in this worker",
            buckets=COUNT_BUCKETS,
            labelnames=("algorithm",),
        ).labels(algorithm=algorithm).observe(trials)
    captured.extend(
        _synth_phase_spans(
            prof.report(),
            chunk_span.trace_id,
            chunk_span.span_id,
            started_wall,
            os.getpid(),
            threading.get_ident(),
        )
    )
    return ChunkResult(
        value, ChunkTelemetry(chunk_id, worker, delta.export(), captured)
    )


def merge_worker_snapshot(
    registry: MetricsRegistry, exported: list[tuple], worker: str
) -> None:
    """Fold one worker registry's :meth:`~MetricsRegistry.export` into
    *registry* under a ``worker`` label.

    Counters add, gauges adopt the reported value, histograms add their
    per-bucket counts — so merging N chunk deltas equals having observed
    everything in-process.  If a family name already exists in
    *registry* with incompatible labels (e.g. the parent itself observed
    ``obs_span_duration_seconds{span=...}`` without a ``worker`` label),
    the merged series land under a ``worker_``-prefixed family name
    instead of corrupting the resident one.  A histogram whose bucket
    layout differs from the resident family's raises ``ValueError``
    before any series is folded: a failed merge changes no series.
    """
    resolved = []
    for kind, name, labelnames, series in exported:
        getter = getattr(registry, kind)  # the get-or-create method
        labelnames = (*labelnames, "worker")
        kwargs = {"buckets": series[0][1][0]} if kind == "histogram" else {}
        try:
            family = getter(name, labelnames=labelnames, **kwargs)
        except ValueError:
            family = getter("worker_" + name, labelnames=labelnames, **kwargs)
        if kind == "histogram":
            for _, state in series:
                if tuple(state[0]) != family.bounds:
                    raise ValueError(
                        f"cannot merge histogram {family.name!r} with bounds "
                        f"{tuple(state[0])} into one with bounds {family.bounds}"
                    )
        resolved.append((family, labelnames, series))
    for family, labelnames, series in resolved:
        for labelvalues, state in series:
            labels = dict(zip(labelnames, (*labelvalues, worker)))
            family.labels(**labels).merge(state)


class RemoteTelemetry:
    """Parent-side merge point for piggybacked worker telemetry.

    One instance per serving registry (the scheduler owns it); thread
    safe, because pool result callbacks arrive on the worker set's
    reader thread.  ``absorb`` is idempotent per chunk: the first result
    for a chunk ID merges, later duplicates (both copies of a re-sent
    packet answering) only bump ``telemetry_chunks_duplicate_total``.
    """

    #: How many absorbed chunk IDs to remember for dedup.
    DEDUP_WINDOW = 4096

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._lock = threading.Lock()
        self._seen: set[str] = set()
        self._order: deque[str] = deque()
        self._merged = registry.counter(
            "telemetry_chunks_merged_total",
            "Worker chunk telemetry payloads merged into this registry",
        )
        self._duplicates = registry.counter(
            "telemetry_chunks_duplicate_total",
            "Chunk telemetry payloads skipped as already-merged duplicates",
        )
        # Claim the parent's span-duration family (as spans.span declares
        # it) before any merge can: worker span durations then always land
        # in worker_obs_span_duration_seconds, whichever comes first.
        registry.histogram(
            "obs_span_duration_seconds",
            "Wall-clock duration of instrumented spans",
            buckets=LATENCY_BUCKETS,
            labelnames=("span",),
        )

    def absorb(self, result: ChunkResult) -> Any:
        """Merge a chunk's telemetry (if any) and return its bare value.

        Nothing merges while observability is disabled here, whatever
        the worker shipped.  Telemetry failures are contained: the chunk
        value is returned even if a malformed payload cannot be merged.
        """
        telemetry = result.telemetry
        if telemetry is None or not enabled():
            return result.value
        with self._lock:
            if telemetry.chunk_id in self._seen:
                self._duplicates.inc()
                return result.value
            self._seen.add(telemetry.chunk_id)
            self._order.append(telemetry.chunk_id)
            while len(self._order) > self.DEDUP_WINDOW:
                self._seen.discard(self._order.popleft())
        try:
            merge_worker_snapshot(
                self.registry, telemetry.metrics, telemetry.worker
            )
            for record in telemetry.spans:
                emit_span_record(record)
            self._merged.inc()
        except Exception:
            from .logging import get_logger

            get_logger("repro.obs.remote").warning(
                "telemetry_merge_failed",
                chunk_id=telemetry.chunk_id,
                worker=telemetry.worker,
            )
        return result.value
