"""Unified observability layer: structured logs, spans, metrics.

One subsystem, three signals, shared context:

* **Structured logging** (:mod:`repro.obs.logging`) — :func:`get_logger`
  returns a named logger emitting JSON-lines events; off by default,
  enabled with :func:`configure_logging`.
* **Tracing** (:mod:`repro.obs.spans`) — :func:`span` times a phase and
  links it into a per-request trace via contextvars;
  :func:`bind_trace` continues a trace across threads.  Every log
  record emitted inside a span carries its ``trace_id``/``span_id``.
* **Metrics** (:mod:`repro.obs.metrics`) — counters, gauges, and
  fixed-bucket histograms in a :class:`MetricsRegistry` with Prometheus
  text and JSON expositions; :func:`use_registry` scopes observations
  to a service's own registry.
* **Phase profiling** (:mod:`repro.obs.profile`) — a contextvar-scoped
  :class:`PhaseProfiler` fed by named-phase / per-round hooks inside the
  fast engines and the staged runtime; off unless :func:`use_profiler`
  binds one, and the backbone of ``python -m repro bench``.
* **Remote telemetry** (:mod:`repro.obs.remote`) — the cross-process
  plane: workers record into their own registry and span buffer, ship
  delta snapshots piggybacked on chunk results, and the parent merges
  them under a ``worker`` label while re-parenting worker spans into
  the submitting request's trace.  :mod:`repro.obs.export` turns the
  collected spans into Chrome trace-event / Perfetto JSON
  (``python -m repro trace``); :mod:`repro.obs.dashboard` renders the
  live ``python -m repro top`` terminal view.

:mod:`repro.obs.bridge` feeds the engines' round/message/slot
measurements into the same histograms, so ``python -m repro serve
--stats-every N`` exposes the paper's round distributions alongside
request latency and cache behavior.  See
``docs/OBSERVABILITY.md``.

:func:`set_enabled(False) <set_enabled>` is the global kill switch; the
benchmark suite uses it to bound instrumentation overhead.
"""

from .bridge import observe_run_metrics, observe_trial
from .dashboard import TopDashboard, run_top, snapshot_from_registry
from .health import (
    HealthReport,
    HealthRule,
    RuleResult,
    default_rules,
    evaluate_health,
    load_stats_snapshot,
)
from .export import (
    JsonlSpanSink,
    read_spans_jsonl,
    to_chrome_trace,
)
from .logging import (
    StructLogger,
    configure_logging,
    disable_logging,
    get_logger,
    logging_enabled,
)
from .metrics import (
    AGE_BUCKETS,
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    ROUND_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    default_registry,
    enabled,
    get_registry,
    label_key,
    parse_label_key,
    set_enabled,
    use_registry,
)
from .profile import PhaseProfiler, current_profiler, phase, use_profiler
from .remote import (
    ChunkResult,
    ChunkTelemetry,
    RemoteTelemetry,
    TraceContext,
    current_trace_context,
    merge_worker_snapshot,
    run_chunk_with_telemetry,
    use_trace,
)
from .spans import (
    Span,
    bind_trace,
    capture_spans,
    current_span_id,
    current_trace_id,
    emit_span_record,
    new_span_id,
    new_trace_id,
    register_span_sink,
    span,
    unregister_span_sink,
)

__all__ = [
    # logging
    "StructLogger",
    "get_logger",
    "configure_logging",
    "disable_logging",
    "logging_enabled",
    # profiling
    "PhaseProfiler",
    "current_profiler",
    "use_profiler",
    "phase",
    # spans
    "Span",
    "span",
    "bind_trace",
    "current_trace_id",
    "current_span_id",
    "new_trace_id",
    "new_span_id",
    "capture_spans",
    "emit_span_record",
    "register_span_sink",
    "unregister_span_sink",
    # remote telemetry
    "ChunkResult",
    "ChunkTelemetry",
    "RemoteTelemetry",
    "TraceContext",
    "current_trace_context",
    "merge_worker_snapshot",
    "run_chunk_with_telemetry",
    "use_trace",
    # export / dashboard
    "JsonlSpanSink",
    "read_spans_jsonl",
    "to_chrome_trace",
    "TopDashboard",
    "run_top",
    "snapshot_from_registry",
    # health
    "HealthRule",
    "HealthReport",
    "RuleResult",
    "default_rules",
    "evaluate_health",
    "load_stats_snapshot",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "get_registry",
    "default_registry",
    "use_registry",
    "set_enabled",
    "enabled",
    "label_key",
    "parse_label_key",
    "LATENCY_BUCKETS",
    "ROUND_BUCKETS",
    "COUNT_BUCKETS",
    "AGE_BUCKETS",
    # bridge
    "observe_run_metrics",
    "observe_trial",
]
