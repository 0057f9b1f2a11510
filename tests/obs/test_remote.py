"""Cross-process telemetry plane: trace propagation, merge, dedup.

The contract under test (see ``repro.obs.remote``):

* trace context survives thread and process hops — the worker-side span
  tree attaches under the dispatching span for ``fork`` and ``spawn``
  alike, and the *structure* of the tree (names and parent edges) is
  identical across start methods;
* worker metric deltas (``MetricsRegistry.export``) merge into the
  parent registry under a ``worker`` label, merge-correctly for counters
  and histograms, and exactly as the JSON-text wire they replaced did;
* a histogram with another bucket layout never merges silently;
* absorbing the same chunk twice (retried dispatch) is idempotent;
* the parent's span-duration family survives worker merges in any order.
"""

import io
import json
import math
import multiprocessing as mp
import random
import threading

import pytest

from repro.fast.fair_tree import FastFairTree
from repro.graphs.generators import random_tree
from repro.obs.logging import configure_logging, disable_logging
from repro.obs.metrics import (
    AGE_BUCKETS,
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    ROUND_BUCKETS,
    Histogram,
    MetricsRegistry,
    parse_label_key,
    set_enabled,
)
from repro.obs.remote import (
    ChunkResult,
    ChunkTelemetry,
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
        series = {
            (kind, name): values
            for kind, name, _labelnames, values in telemetry.metrics
        }
        assert series["counter", "worker_trials_total"] == [(("alg",), 5.0)]
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
        # MetricsRegistry.export() of one worker's delta.
        return [
            ("counter", "jobs_total", ("kind",), [(("a",), 3.0)]),
            ("gauge", "depth", (), [((), 2.0)]),
            (
                "histogram",
                "lat",
                ("kind",),
                [(("a",), ((1.0, 2.0), (1, 1, 0), 3.0, 2))],
            ),
        ]

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


# --------------------------------------------------------------------- #
# The JSON-text wire the export replaced, kept as a test-local reference:
# the worker shipped ``MetricsRegistry.snapshot()`` and the parent parsed
# every label key and bucket bound back.
# --------------------------------------------------------------------- #
def _ref_parse_number(text):
    if text == "+Inf":
        return math.inf
    return float(text)


def _ref_merge_snapshot_value(metric, value):
    """``Counter``/``Gauge``/``Histogram.merge_snapshot_value``."""
    if metric.kind == "counter":
        metric.inc(float(value))
        return
    if metric.kind == "gauge":
        metric.set(float(value))
        return
    buckets = value.get("buckets", {})
    incs = [0] * (len(metric.bounds) + 1)
    index = {b: i for i, b in enumerate(metric.bounds)}
    index[math.inf] = len(metric.bounds)
    prev = 0
    for bound_text, cum in buckets.items():
        bound = _ref_parse_number(bound_text)
        try:
            idx = index[bound]
        except KeyError:
            raise ValueError(f"unknown bucket bound {bound_text!r}") from None
        incs[idx] += int(cum) - prev
        prev = int(cum)
    with metric._lock:
        for i, d in enumerate(incs):
            metric._counts[i] += d
        metric._sum += float(value.get("sum", 0.0))
        metric._count += int(value.get("count", 0))


def _ref_merge_worker_snapshot(registry, snapshot, worker):
    kinds = (
        ("counters", registry.counter, False),
        ("gauges", registry.gauge, False),
        ("histograms", registry.histogram, True),
    )
    for section, getter, is_hist in kinds:
        for name, series in snapshot.get(section, {}).items():
            for key, value in series.items():
                labels = parse_label_key(key) if key else {}
                labels["worker"] = worker
                labelnames = tuple(labels)
                kwargs = {}
                if is_hist:
                    bounds = [
                        b for b in value.get("buckets", {}) if b != "+Inf"
                    ]
                    if bounds:
                        kwargs["buckets"] = tuple(float(b) for b in bounds)
                try:
                    family = getter(name, labelnames=labelnames, **kwargs)
                except ValueError:
                    family = getter(
                        "worker_" + name, labelnames=labelnames, **kwargs
                    )
                _ref_merge_snapshot_value(family.labels(**labels), value)


#: name → (kind, labelnames, bucket layout); one layout per name, as in
#: the service, where a family's declaration fixes its buckets.
_CATALOG = {
    "jobs_total": ("counter", ("kind",), None),  # resident unlabeled twin
    "msgs_total": ("counter", (), None),
    "depth": ("gauge", (), None),
    "load": ("gauge", ("shard", "kind"), None),
    "lat": ("histogram", ("kind",), LATENCY_BUCKETS),
    "rounds": ("histogram", ("kind", "phase"), ROUND_BUCKETS),
    "sizes": ("histogram", (), COUNT_BUCKETS),
    "ages": ("histogram", ("kind",), AGE_BUCKETS),
    "custom": ("histogram", ("phase",), (1e-7, 0.3, 7.0, 2.5e10)),
    # the parent's own span family (pre-claimed by RemoteTelemetry)
    "obs_span_duration_seconds": ("histogram", ("span",), LATENCY_BUCKETS),
}

_HOSTILE = ['quo"te', "back\\slash", "new\nline", "com,ma", "", "a", "b"]


def _random_delta(rng):
    """A worker delta registry: random families, children and values."""
    delta = MetricsRegistry()
    for name in rng.sample(sorted(_CATALOG), rng.randint(1, len(_CATALOG))):
        kind, labelnames, layout = _CATALOG[name]
        if kind == "histogram":
            family = delta.histogram(name, buckets=layout, labelnames=labelnames)
        else:
            family = getattr(delta, kind)(name, labelnames=labelnames)
        for _ in range(rng.randint(1, 3)):
            child = family.labels(
                **{n: rng.choice(_HOSTILE) for n in labelnames}
            )
            if kind == "counter":
                child.inc(rng.choice([0, 1, 2.5, rng.randint(1, 10**6)]))
            elif kind == "gauge":
                child.set(rng.uniform(-5, 5))
            else:  # 0 observations leaves an empty child
                top = layout[-1]
                child.observe_many(
                    [rng.uniform(0, top * 1.5) for _ in range(rng.randint(0, 6))]
                )
    return delta


def _resident_registry():
    """A parent registry whose families force the ``worker_`` fallback."""
    reg = MetricsRegistry()
    reg.counter("jobs_total").inc(9)
    RemoteTelemetry(reg)  # pre-claims obs_span_duration_seconds{span}
    return reg


class TestExportWireEqualsStringWire:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_merged_registry(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            deltas = [_random_delta(rng) for _ in range(rng.randint(1, 3))]
            old, new = _resident_registry(), _resident_registry()
            for _ in range(2):
                for delta in deltas:
                    for worker in ("pid:1", "pid:2"):
                        _ref_merge_worker_snapshot(
                            old, json.loads(json.dumps(delta.snapshot())), worker
                        )
                        merge_worker_snapshot(new, delta.export(), worker)
            assert new.snapshot() == old.snapshot()
            assert new.render_prometheus() == old.render_prometheus()

    def test_sweep_reaches_the_fallback_and_the_inf_bucket(self):
        rng = random.Random(0)
        reg = _resident_registry()
        for _ in range(25):
            merge_worker_snapshot(reg, _random_delta(rng).export(), "pid:1")
        snap = reg.snapshot()
        assert "worker_jobs_total" in snap["counters"]
        assert "worker_obs_span_duration_seconds" in snap["histograms"]
        lat = snap["histograms"]["lat"].values()
        assert any(v["buckets"]["+Inf"] > v["buckets"]["30"] for v in lat)

    def test_export_pickles(self):
        import pickle

        exported = _random_delta(random.Random(1)).export()
        assert pickle.loads(pickle.dumps(exported)) == exported


class TestLayoutMismatch:
    def test_histogram_merge_rejects_other_bounds(self):
        mine, theirs = Histogram((1, 2)), Histogram((1, 3))
        theirs.observe(0.5)
        with pytest.raises(ValueError, match="bounds"):
            mine.merge(theirs.state())
        assert mine.count == 0

    def test_absorb_of_other_layout_logs_and_keeps_value(self):
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(1, 2), labelnames=("worker",))
        tel = RemoteTelemetry(reg)
        payload = [
            ("histogram", "lat", (), [((), ((1.0, 3.0), (1, 0, 0), 0.5, 1))])
        ]
        buf = io.StringIO()
        configure_logging(stream=buf, level="debug")
        try:
            value = tel.absorb(
                ChunkResult(7, ChunkTelemetry("chunk-m", "pid:1", payload))
            )
        finally:
            disable_logging()
        assert value == 7
        assert "telemetry_merge_failed" in buf.getvalue()
        assert reg.counter("telemetry_chunks_merged_total").value == 0
        lat = reg.snapshot()["histograms"].get("lat", {})
        assert all(v["count"] == 0 for v in lat.values())

    def test_failed_merge_folds_no_family(self):
        # The payload's counter is fine and its histogram has another
        # layout: the chunk fails as a whole, so neither lands.
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(1, 2), labelnames=("worker",)).labels(
            worker="pid:0"
        ).observe(1.5)
        tel = RemoteTelemetry(reg)
        before = reg.snapshot()
        payload = [
            ("counter", "trials_total", (), [((), 64.0)]),
            ("histogram", "lat", (), [((), ((1.0, 3.0), (1, 0, 0), 0.5, 1))]),
        ]
        buf = io.StringIO()
        configure_logging(stream=buf, level="debug")
        try:
            value = tel.absorb(
                ChunkResult(7, ChunkTelemetry("chunk-p", "pid:1", payload))
            )
        finally:
            disable_logging()
        assert value == 7
        assert reg.snapshot() == before
        assert "telemetry_merge_failed" in buf.getvalue()
        assert reg.counter("telemetry_chunks_merged_total").value == 0


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
        reg = MetricsRegistry()
        tel = RemoteTelemetry(reg)
        bad = ChunkResult(
            3,
            ChunkTelemetry(
                "chunk-x", "pid:9", [("histogram", "h", (), [((), "garbage")])]
            ),
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
