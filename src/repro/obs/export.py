"""Span export: JSONL sinks, Chrome trace JSON.

The spans layer fans completed spans out to registered sinks as plain
dict records (:func:`repro.obs.spans.register_span_sink`); this module
provides the consumers:

* :class:`JsonlSpanSink` — an append-only JSON-lines file sink (the
  ``--trace-file`` option on ``serve``/``batch``), flushed per record so
  a killed process loses at most the record being written.
* :func:`to_chrome_trace` — render records as Chrome trace-event JSON
  (the ``traceEvents`` array of ``"ph": "X"`` complete events), loadable
  in ``chrome://tracing`` and https://ui.perfetto.dev.  Worker records
  keep their own ``pid``/``tid``, so one request's chunks appear as
  parallel process tracks under the same trace.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Iterable, Mapping, TextIO

__all__ = [
    "JsonlSpanSink",
    "to_chrome_trace",
    "read_spans_jsonl",
]


class JsonlSpanSink:
    """Span sink appending one JSON object per line to a text stream.

    Flushes after every record: trace files are most valuable exactly
    when the process dies unexpectedly.  ``close()`` only closes streams
    this sink opened itself (pass a path, not a handle, for that).
    """

    def __init__(self, target: str | TextIO) -> None:
        if isinstance(target, str):
            self._stream: TextIO = open(target, "a", encoding="utf-8")
            self._owns = True
        else:
            self._stream = target
            self._owns = False
        self._lock = threading.Lock()

    def __call__(self, record: Mapping[str, Any]) -> None:
        line = json.dumps(record, default=str)
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()

    def flush(self) -> None:
        with self._lock:
            self._stream.flush()

    def close(self) -> None:
        with self._lock:
            self._stream.flush()
            if self._owns:
                self._stream.close()


def read_spans_jsonl(path: str) -> list[dict[str, Any]]:
    """Load span records from a ``--trace-file`` JSONL file.

    Skips blank and truncated lines (a SIGKILLed writer can leave a
    partial last record) rather than failing the whole read.
    """
    records: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def to_chrome_trace(
    records: Iterable[Mapping[str, Any]], trace_id: str | None = None
) -> dict[str, Any]:
    """Render span records as a Chrome trace-event JSON object.

    Each record becomes one ``"ph": "X"`` (complete) event with
    microsecond timestamps; ``pid``/``tid`` pass through, so parent and
    worker spans of one request render as separate tracks.  The span and
    trace IDs ride along in ``args`` for Perfetto's detail pane.
    """
    events: list[dict[str, Any]] = []
    for r in records:
        if trace_id is not None and r.get("trace_id") != trace_id:
            continue
        args: dict[str, Any] = {
            "trace_id": r.get("trace_id"),
            "span_id": r.get("span_id"),
            "parent_id": r.get("parent_id"),
        }
        fields = r.get("fields")
        if isinstance(fields, Mapping):
            args.update(fields)
        events.append(
            {
                "name": r.get("name", "span"),
                "cat": "repro",
                "ph": "X",
                "ts": float(r.get("ts", 0.0)) * 1e6,
                "dur": float(r.get("dur_s", 0.0)) * 1e6,
                "pid": r.get("pid", 0),
                "tid": r.get("tid", 0),
                "args": args,
            }
        )
    events.sort(key=lambda e: e["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}
