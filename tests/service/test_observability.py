"""Service-level observability: connected span trees + populated metrics.

The acceptance bar for the observability layer: one service request must
produce a *connected* trace in the JSON log output — the submit-side
span, the scheduler dispatch, the pool chunk execution, and the
request-completed event all share one ``trace_id`` — and the estimator's
registry must expose the request-latency, trials-per-chunk, and
rounds-per-trial histograms.
"""

import io
import json

import pytest

from repro.graphs.spec import build_graph
from repro.obs.logging import configure_logging, disable_logging
from repro.service import Estimator


@pytest.fixture(autouse=True)
def _silence_after():
    yield
    disable_logging()


def run_probe(buf, trials=24, repeats=1):
    configure_logging(stream=buf, level="debug")
    graph = build_graph("tree:31")
    with Estimator(n_jobs=1, cache_size=8) as service:
        for _ in range(repeats):
            service.estimate(
                graph=graph,
                algorithm="luby_fast",
                trials=trials,
                seed=3,
                mode="exact",
            )
        return service


class TestSpanTree:
    def test_one_request_yields_one_connected_trace(self):
        buf = io.StringIO()
        run_probe(buf)
        events = [json.loads(line) for line in buf.getvalue().splitlines()]
        traced = [e for e in events if "trace_id" in e]
        assert traced, "no trace-correlated events emitted"
        trace_ids = {e["trace_id"] for e in traced}
        assert len(trace_ids) == 1, f"trace fragmented: {trace_ids}"

        names = {e["event"] for e in traced}
        assert "request_submitted" in names
        assert "request_completed" in names
        span_names = {
            e["span"] for e in traced if e["event"] == "span"
        }
        # submit → dispatch → chunk, all in the one trace
        assert {"estimator.submit", "scheduler.dispatch", "pool.chunk"} <= (
            span_names
        )

    def test_span_parents_link_into_a_tree(self):
        buf = io.StringIO()
        run_probe(buf)
        spans = {
            e["span"]: e
            for e in (json.loads(l) for l in buf.getvalue().splitlines())
            if e["event"] == "span"
        }
        submit = spans["estimator.submit"]
        dispatch = spans["scheduler.dispatch"]
        chunk = spans["pool.chunk"]
        assert dispatch["parent_id"] == submit["span_id"]
        assert chunk["parent_id"] == dispatch["span_id"]

    def test_separate_requests_get_separate_traces(self):
        buf = io.StringIO()
        configure_logging(stream=buf, level="debug")
        graph = build_graph("tree:31")
        with Estimator(n_jobs=1, cache_size=8) as service:
            service.estimate(
                graph=graph, algorithm="luby_fast", trials=8, seed=1,
                mode="exact",
            )
            service.estimate(
                graph=graph, algorithm="luby_fast", trials=8, seed=2,
                mode="exact",
            )
        events = [json.loads(l) for l in buf.getvalue().splitlines()]
        completions = [e for e in events if e["event"] == "request_completed"]
        assert len(completions) == 2
        assert completions[0]["trace_id"] != completions[1]["trace_id"]


class TestServiceMetrics:
    def test_required_histograms_populated(self):
        service = run_probe(io.StringIO(), repeats=2)
        snap = service.registry.snapshot()
        hists = snap["histograms"]
        latency = hists["service_request_latency_seconds"]
        assert sum(s["count"] for s in latency.values()) == 2
        assert hists["service_trials_per_chunk"][""]["count"] >= 1
        # chunk-side metrics always carry the executing worker's label
        # (pid:<self> on the inline path), so aggregate across workers
        rounds = hists["trial_rounds"]
        assert all('algorithm="luby_fast"' in key for key in rounds)
        assert all('worker="pid:' in key for key in rounds)
        assert sum(s["count"] for s in rounds.values()) == 24  # per trial
        assert hists["service_cache_age_seconds"][""]["count"] == 1  # hit

    def test_prometheus_exposition_includes_service_series(self):
        service = run_probe(io.StringIO())
        text = service.registry.render_prometheus()
        assert "service_requests_total 1" in text
        assert (
            'service_request_latency_seconds_bucket{algorithm="luby_fast"'
            in text
        )
        assert 'trial_rounds_count{algorithm="luby_fast",worker="pid:' in text

    def test_remote_plane_merges_worker_metrics_and_connects_trace(self):
        """Cross-process acceptance: a request on a real 2-worker spawn
        pool yields (a) worker-labeled metrics merged into the service
        registry and (b) one connected span tree — a single root and no
        orphan parents — exportable as Chrome trace JSON with parent and
        worker processes as separate tracks."""
        import os

        from repro.graphs.spec import build_graph as _build
        from repro.obs.export import to_chrome_trace
        from repro.obs.metrics import parse_label_key
        from repro.obs.spans import register_span_sink, unregister_span_sink

        graph = _build("tree:63")
        collected = []
        register_span_sink(collected.append)
        try:
            # clamp_to_host=False: the point is exercising the
            # cross-process plane even on a small CI box
            with Estimator(
                n_jobs=2,
                cache_size=0,
                chunk_trials=16,
                clamp_to_host=False,
                context="spawn",
            ) as service:
                from repro.service import Precision

                handle = service.submit(
                    graph=graph,
                    algorithm="luby_fast",
                    precision=Precision(
                        node_ci=0.05, min_trials=48, max_trials=96
                    ),
                    seed=7,
                    mode="exact",
                )
                handle.result()
                trace_id = handle.trace_id
                snap = service.registry.snapshot()
                merged = service.registry.counter(
                    "telemetry_chunks_merged_total"
                ).value
        finally:
            unregister_span_sink(collected.append)
        records = [r for r in collected if r.get("trace_id") == trace_id]

        assert merged >= 1
        chunk_series = snap["histograms"]["worker_chunk_seconds"]
        workers = {parse_label_key(k).get("worker") for k in chunk_series}
        assert workers
        assert f"pid:{os.getpid()}" not in workers  # real worker processes

        ids = {r["span_id"] for r in records}
        roots = [r for r in records if not r.get("parent_id")]
        orphans = [
            r
            for r in records
            if r.get("parent_id") and r["parent_id"] not in ids
        ]
        assert len(roots) == 1, f"fragmented trace: {[r['name'] for r in roots]}"
        assert roots[0]["name"] == "estimator.submit"
        assert orphans == [], f"orphan spans: {[r['name'] for r in orphans]}"

        doc = to_chrome_trace(records, trace_id=trace_id)
        assert doc["traceEvents"]
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert len(pids) >= 2  # parent + at least one worker track

    def test_service_totals_exposed_from_construction(self):
        # Every lifetime total is a declared registry counter, at 0 in
        # the exposition before the first request.
        fields = (
            "requests", "precision_requests", "coalesced_requests",
            "chunks_executed", "trials_executed", "early_stops",
            "cache_hits", "cache_misses", "cache_evictions",
            "evidence_hits", "evidence_misses", "evidence_deposits",
            "evidence_trials_reused",
        )
        with Estimator(n_jobs=1) as svc:
            text = svc.registry.render_prometheus()
        for field in fields:
            name = f"service_{field}_total"
            help_text = field.replace("_", " ")
            assert (
                f"# HELP {name} Estimation-service lifetime total: {help_text}\n"
                f"# TYPE {name} counter\n{name} 0\n"
            ) in text

    def test_estimators_have_isolated_registries(self):
        graph = build_graph("tree:15")
        with Estimator(n_jobs=1, cache_size=4) as a, Estimator(
            n_jobs=1, cache_size=4
        ) as b:
            a.estimate(
                graph=graph, algorithm="luby_fast", trials=4, seed=0,
                mode="exact",
            )
            assert a.registry.counter("service_requests_total").value == 1
            assert b.registry.counter("service_requests_total").value == 0
            assert (
                b.registry.snapshot()["counters"]["service_requests_total"][""]
                == 0.0
            )

    def test_scheduler_submit_first_keeps_estimate_working(self):
        # A request submitted straight to the scheduler opens no parent
        # span, so its chunk merge is the first to touch the span-duration
        # family; later estimates must still record their own spans.
        from repro.service import EstimateRequest

        graph = build_graph("tree:15")
        with Estimator(n_jobs=1, cache_size=0) as service:
            ticket = service._scheduler.submit(
                EstimateRequest(
                    algorithm="luby_fast", graph=graph, trials=8, seed=0,
                    mode="exact",
                )
            )
            ticket.result(timeout=60)
            for seed in (1, 2):
                service.estimate(
                    graph=graph, algorithm="luby_fast", trials=8, seed=seed,
                    mode="exact",
                )
            hists = service.registry.snapshot()["histograms"]
        assert 'span="estimator.submit"' in hists["obs_span_duration_seconds"]
        assert hists["worker_obs_span_duration_seconds"]
