"""Cross-process telemetry plane: trace propagation, merge, dedup.

The contract under test (see ``repro.obs.remote``):

* trace context survives thread and process hops — the worker-side span
  tree attaches under the dispatching span for ``fork`` and ``spawn``
  alike, and the *structure* of the tree (names and parent edges) is
  identical across start methods;
* worker metric snapshots merge into the parent registry under a
  ``worker`` label, merge-correctly for counters and histograms;
* absorbing the same chunk twice (retried dispatch) is idempotent;
* the parent's span-duration family survives worker merges in any order.
"""

import multiprocessing as mp
import threading

import pytest

from repro.fast.fair_tree import FastFairTree
from repro.graphs.generators import random_tree
from repro.obs.metrics import MetricsRegistry, set_enabled
from repro.obs.remote import (
    ChunkResult,
    RemoteTelemetry,
    TraceContext,
    current_trace_context,
    merge_worker_snapshot,
    run_chunk_with_telemetry,
    use_trace,
)
from repro.obs.spans import (
    capture_spans,
    register_span_sink,
    span,
    unregister_span_sink,
)


class TestTraceContext:
    def test_captures_ambient_position(self):
        with span("outer") as s:
            ctx = current_trace_context()
        assert ctx.trace_id == s.trace_id
        assert ctx.span_id == s.span_id

    def test_use_trace_reenters(self):
        ctx = TraceContext(trace_id="t" * 32, span_id="p" * 16)
        records = []
        with capture_spans(records.append):
            with use_trace(ctx):
                with span("child"):
                    pass
        (rec,) = records
        assert rec["trace_id"] == ctx.trace_id
        assert rec["parent_id"] == ctx.span_id

    def test_use_trace_none_clears_inherited_state(self):
        # A fork-started worker inherits the parent's contextvars; an
        # empty context must still rebind so a chunk never attaches to
        # a stale request's tree.
        with span("stale"):
            with use_trace(None):
                ctx = current_trace_context()
                assert ctx.trace_id is None
                assert ctx.span_id is None

    def test_picklable(self):
        import pickle

        ctx = TraceContext(trace_id="a" * 32, span_id="b" * 16)
        assert pickle.loads(pickle.dumps(ctx)) == ctx


class TestThreadPropagation:
    def test_spans_connect_across_threads(self):
        records = []
        with capture_spans(records.append):
            with span("parent") as parent:
                ctx = current_trace_context()

                def work():
                    with use_trace(ctx):
                        with span("thread.op"):
                            pass

                t = threading.Thread(target=work)
                t.start()
                t.join()
        by_name = {r["name"]: r for r in records}
        assert by_name["thread.op"]["trace_id"] == parent.trace_id
        assert by_name["thread.op"]["parent_id"] == parent.span_id


def _span_tree_structure(records, root_parent_id):
    """Records → sorted (name, parent-name) edges, IDs abstracted away.

    Span IDs are random, so cross-run comparison must be structural:
    an edge names the span and its parent's *name* (or ``<root>`` for
    spans hanging off the ambient position the chunk was shipped with).
    """
    names = {r["span_id"]: r["name"] for r in records}
    edges = []
    for r in records:
        parent = r.get("parent_id")
        if parent == root_parent_id:
            edges.append((r["name"], "<root>"))
        else:
            edges.append((r["name"], names.get(parent, "<orphan>")))
    return sorted(edges)


def _chunk_span_tree(start_method):
    """Submit one chunk to a 2-worker pool with a merge point; return
    (structure, merged_count, worker_labels)."""
    from repro.analysis.montecarlo import TrialPool
    from repro.obs.metrics import parse_label_key
    from repro.runtime.rng import spawn_trial_seeds

    graph = random_tree(40, seed=5).graph
    registry = MetricsRegistry()
    telemetry = RemoteTelemetry(registry)
    collected = []
    done = threading.Event()
    errors = []

    def failed(exc):
        errors.append(exc)
        done.set()

    register_span_sink(collected.append)
    try:
        pool = TrialPool(
            FastFairTree(),
            graph,
            workers=2,
            context=start_method,
            telemetry=telemetry,
        )
        try:
            with span("test.root") as root:
                pool.submit_chunk(
                    spawn_trial_seeds(0, 6),
                    False,
                    lambda counts: done.set(),
                    failed,
                )
                root_span_id = root.span_id
            assert done.wait(120), "chunk never completed"
            assert errors == []
        finally:
            pool.close()
    finally:
        unregister_span_sink(collected.append)

    worker_records = [r for r in collected if r["name"] != "test.root"]
    structure = _span_tree_structure(worker_records, root_span_id)
    merged = registry.counter("telemetry_chunks_merged_total").value
    chunk_hist = registry.snapshot()["histograms"].get(
        "worker_chunk_seconds", {}
    )
    workers = {parse_label_key(k).get("worker") for k in chunk_hist}
    return structure, merged, workers


class TestProcessPropagation:
    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_fork_chunk_attaches_under_dispatch_span(self):
        structure, merged, workers = _chunk_span_tree("fork")
        assert ("pool.chunk", "<root>") in structure
        assert ("<orphan>",) not in {(p,) for _n, p in structure}
        assert merged == 1
        assert any(w and w.startswith("pid:") for w in workers)

    @pytest.mark.skipif(
        "spawn" not in mp.get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_spawn_chunk_attaches_under_dispatch_span(self):
        structure, merged, _workers = _chunk_span_tree("spawn")
        assert ("pool.chunk", "<root>") in structure
        assert merged == 1

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods()
        or "spawn" not in mp.get_all_start_methods(),
        reason="need both fork and spawn",
    )
    def test_fork_and_spawn_trees_structurally_identical(self):
        # Span IDs are random per process, so "bit-identical" means the
        # (name → parent-name) edge multiset: same spans, same shape.
        fork_tree, _, _ = _chunk_span_tree("fork")
        spawn_tree, _, _ = _chunk_span_tree("spawn")
        assert fork_tree == spawn_tree


class TestWorkerHarness:
    def test_returns_value_and_delta_snapshot(self):
        result = run_chunk_with_telemetry(
            lambda: 41 + 1,
            TraceContext(),
            "chunk-a",
            algorithm="alg",
            trials=5,
        )
        assert result.value == 42
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry.chunk_id == "chunk-a"
        assert telemetry.worker.startswith("pid:")
        counters = telemetry.metrics["counters"]
        assert counters["worker_trials_total"]['algorithm="alg"'] == 5.0
        names = [r["name"] for r in telemetry.spans]
        assert "pool.chunk" in names

    def test_disabled_plane_ships_bare_result(self):
        set_enabled(False)
        try:
            result = run_chunk_with_telemetry(
                lambda: 7, TraceContext(), "chunk-b", algorithm="alg", trials=1
            )
        finally:
            set_enabled(True)
        assert result.value == 7
        assert result.telemetry is None

    def test_worker_spans_isolated_from_parent_sinks(self):
        # capture_spans REPLACES the sink list inside the harness: a
        # fork-inherited parent sink must not receive worker spans
        # directly (they arrive exactly once, via absorb).
        leaked = []
        register_span_sink(leaked.append)
        try:
            run_chunk_with_telemetry(
                lambda: None, TraceContext(), "chunk-c", algorithm="a"
            )
        finally:
            unregister_span_sink(leaked.append)
        assert leaked == []


class TestMergeSnapshot:
    def _snapshot(self):
        return {
            "counters": {"jobs_total": {'kind="a"': 3.0}},
            "gauges": {"depth": {"": 2.0}},
            "histograms": {
                "lat": {
                    'kind="a"': {
                        "count": 2,
                        "sum": 3.0,
                        "buckets": {"1": 1, "2": 2, "+Inf": 2},
                    }
                }
            },
        }

    def test_merges_under_worker_label(self):
        reg = MetricsRegistry()
        merge_worker_snapshot(reg, self._snapshot(), "pid:1")
        merge_worker_snapshot(reg, self._snapshot(), "pid:1")
        merge_worker_snapshot(reg, self._snapshot(), "pid:2")
        snap = reg.snapshot()
        counters = snap["counters"]["jobs_total"]
        assert counters['kind="a",worker="pid:1"'] == 6.0
        assert counters['kind="a",worker="pid:2"'] == 3.0
        hist = snap["histograms"]["lat"]['kind="a",worker="pid:1"']
        assert hist["count"] == 4
        assert hist["sum"] == 6.0
        assert hist["buckets"] == {"1": 2, "2": 4, "+Inf": 4}
        # gauges adopt the reported value rather than adding
        assert snap["gauges"]["depth"]['worker="pid:1"'] == 2.0

    def test_label_conflict_falls_back_to_prefixed_family(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total").inc(9)  # unlabeled resident family
        merge_worker_snapshot(reg, self._snapshot(), "pid:1")
        snap = reg.snapshot()
        assert snap["counters"]["jobs_total"][""] == 9.0
        assert (
            snap["counters"]["worker_jobs_total"]['kind="a",worker="pid:1"']
            == 3.0
        )


class TestAbsorbIdempotence:
    def test_duplicate_chunk_merges_once(self):
        reg = MetricsRegistry()
        tel = RemoteTelemetry(reg)
        result = run_chunk_with_telemetry(
            lambda: 11, TraceContext(), "chunk-r", algorithm="alg", trials=8
        )
        assert tel.absorb(result) == 11
        # a retried dispatch delivers the same chunk again — possibly as
        # a distinct (re-executed) result object with the same chunk ID
        retry = run_chunk_with_telemetry(
            lambda: 11, TraceContext(), "chunk-r", algorithm="alg", trials=8
        )
        assert tel.absorb(result) == 11
        assert tel.absorb(retry) == 11

        snap = reg.snapshot()
        trials = snap["counters"]["worker_trials_total"]
        assert sum(trials.values()) == 8.0  # merged exactly once
        assert reg.counter("telemetry_chunks_merged_total").value == 1.0
        assert reg.counter("telemetry_chunks_duplicate_total").value == 2.0

    def test_bare_values_pass_through(self):
        reg = MetricsRegistry()
        tel = RemoteTelemetry(reg)
        assert tel.absorb(ChunkResult(5)) == 5
        assert reg.counter("telemetry_chunks_merged_total").value == 0

    def test_malformed_telemetry_still_returns_value(self):
        from repro.obs.remote import ChunkTelemetry

        reg = MetricsRegistry()
        tel = RemoteTelemetry(reg)
        bad = ChunkResult(
            3, ChunkTelemetry("chunk-x", "pid:9", {"histograms": {"h": {"": "garbage"}}})
        )
        assert tel.absorb(bad) == 3


class TestSpanFamilyOrder:
    """Merged worker span durations never claim the parent's
    ``obs_span_duration_seconds`` family, even when a merge lands first."""

    def test_merge_before_first_parent_span(self):
        from repro.analysis.montecarlo import TrialPool
        from repro.fast.luby import FastLuby
        from repro.graphs.generators import path_graph
        from repro.obs.metrics import use_registry

        reg = MetricsRegistry()
        with TrialPool(
            FastLuby(), path_graph(20), workers=2, telemetry=RemoteTelemetry(reg)
        ) as pool:
            pool.run(16, seed=0)
        with use_registry(reg), span("x"):
            pass
        hists = reg.snapshot()["histograms"]
        assert list(hists["obs_span_duration_seconds"]) == ['span="x"']
        merged = hists["worker_obs_span_duration_seconds"]
        assert any('span="pool.chunk"' in key for key in merged)
