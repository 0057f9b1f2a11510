"""Span export: JSONL sinks, Chrome trace rendering."""

import io
import json

import pytest

from repro.obs.export import JsonlSpanSink, read_spans_jsonl, to_chrome_trace


def _record(name="op", trace="t1", span_id="s1", parent=None, ts=1.0, dur=0.5):
    return {
        "name": name,
        "trace_id": trace,
        "span_id": span_id,
        "parent_id": parent,
        "ts": ts,
        "dur_s": dur,
        "pid": 100,
        "tid": 7,
        "fields": {"algorithm": "luby_fast"},
    }


class TestJsonlSink:
    def test_path_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSpanSink(path)
        sink(_record(name="first"))
        sink(_record(name="second", trace="t2"))
        sink.close()
        records = read_spans_jsonl(path)
        assert [r["name"] for r in records] == ["first", "second"]

    def test_stream_target_not_closed(self):
        buf = io.StringIO()
        sink = JsonlSpanSink(buf)
        sink(_record())
        sink.close()
        assert not buf.closed  # caller owns the handle
        assert json.loads(buf.getvalue().splitlines()[0])["name"] == "op"

    def test_flushes_per_record(self, tmp_path):
        # trace files matter most when the writer dies mid-run: every
        # record must be on disk before the next call returns
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSpanSink(path)
        sink(_record(name="durable"))
        assert read_spans_jsonl(path)[0]["name"] == "durable"
        sink.close()

    def test_reader_skips_blank_and_truncated_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps(_record(name="good"))
            + "\n\n"
            + '{"name": "trunca'  # SIGKILLed writer's partial last line
        )
        records = read_spans_jsonl(str(path))
        assert [r["name"] for r in records] == ["good"]


class TestChromeTrace:
    def test_complete_events_with_microsecond_units(self):
        doc = to_chrome_trace([_record(ts=2.0, dur=0.25)])
        assert doc["displayTimeUnit"] == "ms"
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(2.0e6)
        assert event["dur"] == pytest.approx(0.25e6)
        assert event["pid"] == 100
        assert event["tid"] == 7
        assert event["args"]["span_id"] == "s1"
        assert event["args"]["algorithm"] == "luby_fast"

    def test_events_sorted_by_timestamp(self):
        doc = to_chrome_trace(
            [_record(name="late", ts=5.0), _record(name="early", ts=1.0)]
        )
        assert [e["name"] for e in doc["traceEvents"]] == ["early", "late"]

    def test_filters_to_requested_trace(self):
        doc = to_chrome_trace(
            [_record(trace="t1"), _record(trace="t2", name="other")],
            trace_id="t2",
        )
        assert [e["name"] for e in doc["traceEvents"]] == ["other"]

    def test_output_is_json_serializable(self):
        doc = to_chrome_trace([_record()])
        json.dumps(doc)  # must not raise
