"""End-to-end Estimator tests: exactness, coalescing, lifecycle, pools.

The ISSUE-level guarantees checked here:

* exact mode returns **bit-identical** counts to a serial ``run_trials``
  with the same seed (inline and with a real multiprocess pool);
* concurrent identical requests coalesce — the trials are executed once
  and every subscriber gets the same estimate;
* concurrent seedless requests for the same (graph, algorithm) pair share
  trial chunks instead of running independently;
* ``shutdown`` leaves no worker process behind (no zombies), and
  submitting afterwards raises.
"""

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.analysis import run_trials
from repro.core import make
from repro.fast.batched import disjoint_power_cache_clear
from repro.graphs import build_graph, empty_graph
from repro.service import (
    EstimateCancelled,
    EstimateTimeout,
    Estimator,
)

TREE = "tree:40:3"


class TestExactness:
    def test_exact_mode_matches_serial_run_trials(self):
        graph = build_graph(TREE)
        serial = run_trials(make("fair_tree_fast"), graph, 96, seed=7)
        with Estimator(n_jobs=1, chunk_trials=16) as svc:
            res = svc.estimate(
                graph_spec=TREE,
                algorithm="fair_tree_fast",
                trials=96,
                seed=7,
                mode="exact",
            )
        assert res.mode == "exact"
        assert res.estimate.trials == 96
        assert np.array_equal(res.estimate.counts, serial.counts)

    def test_exact_mode_matches_with_process_pool(self):
        graph = build_graph(TREE)
        serial = run_trials(make("luby_fast"), graph, 64, seed=11)
        with Estimator(n_jobs=2, clamp_to_host=False, chunk_trials=16) as svc:
            res = svc.estimate(
                graph_spec=TREE,
                algorithm="luby_fast",
                trials=64,
                seed=11,
                mode="exact",
            )
        assert np.array_equal(res.estimate.counts, serial.counts)

    def test_vectorized_mode_deterministic(self):
        kwargs = dict(
            graph_spec=TREE, algorithm="luby_fast", trials=128, seed=5
        )
        with Estimator(n_jobs=1, chunk_trials=32, cache_size=0) as svc:
            a = svc.estimate(mode="vectorized", **kwargs)
        with Estimator(n_jobs=1, chunk_trials=32, cache_size=0) as svc:
            b = svc.estimate(mode="vectorized", **kwargs)
        assert a.estimate.trials == 128
        assert np.array_equal(a.estimate.counts, b.estimate.counts)

    def test_auto_resolves_to_vectorized_for_fast_engines(self):
        with Estimator(n_jobs=1) as svc:
            res = svc.estimate(
                graph_spec=TREE, algorithm="luby_fast", trials=32, seed=0
            )
        assert res.mode == "vectorized"

    def test_auto_falls_back_to_exact(self, slow_algorithm):
        with Estimator(n_jobs=1) as svc:
            res = svc.estimate(
                graph_spec="path:8", algorithm=slow_algorithm, trials=8, seed=0
            )
        assert res.mode == "exact"

    def test_auto_resolves_vectorized_for_all_paper_fast_engines(self):
        algorithms = [
            "luby_fast",
            "fair_tree_fast",
            "fair_rooted_fast",
            "fair_bipart_fast",
            "color_mis_fast",
        ]
        with Estimator(n_jobs=1) as svc:
            for algorithm in algorithms:
                res = svc.estimate(
                    graph_spec=TREE, algorithm=algorithm, trials=16, seed=0
                )
                assert res.mode == "vectorized", algorithm
            fallback = svc.registry.counter(
                "service_vectorized_fallback_total", labelnames=("algorithm",)
            )
            assert not fallback.children()

    def test_fallback_counter_increments_per_algorithm(self, slow_algorithm):
        with Estimator(n_jobs=1) as svc:
            svc.estimate(
                graph_spec="path:8", algorithm=slow_algorithm, trials=8, seed=0
            )
            svc.estimate(
                graph_spec="path:8", algorithm=slow_algorithm, trials=8, seed=1
            )
            fallback = svc.registry.counter(
                "service_vectorized_fallback_total", labelnames=("algorithm",)
            )
            assert fallback.labels(algorithm=slow_algorithm).value == 2

    def test_vectorized_mode_requires_runner(self, slow_algorithm):
        with Estimator(n_jobs=1) as svc:
            with pytest.raises(ValueError, match="no vectorized runner"):
                svc.submit(
                    graph_spec="path:8",
                    algorithm=slow_algorithm,
                    trials=8,
                    mode="vectorized",
                )

    def test_auto_mode_above_union_vertex_limit(self):
        """64 copies of a 300,000-node graph exceed the fast engines'
        2^24-vertex limit, so the batched runner takes fewer per union."""
        try:
            with Estimator(n_jobs=1) as svc:
                res = svc.estimate(
                    graph=empty_graph(300_000),
                    algorithm="luby_fast",
                    trials=64,
                    seed=1,
                )
            assert res.mode == "vectorized"
            assert res.estimate.trials == 64
            assert np.all(res.estimate.counts == 64)
        finally:
            disjoint_power_cache_clear()


class TestCoalescing:
    def test_identical_requests_share_execution(self, slow_algorithm):
        kwargs = dict(
            graph_spec=TREE, algorithm=slow_algorithm, trials=64, seed=9
        )
        with Estimator(n_jobs=1, chunk_trials=8) as svc:
            first = svc.submit(**kwargs)
            second = svc.submit(**kwargs)
            a = first.result(timeout=30)
            b = second.result(timeout=30)
            snap = svc.counters.snapshot()
        assert np.array_equal(a.estimate.counts, b.estimate.counts)
        # Only one request's worth of trials actually ran.
        assert snap["trials_executed"] == 64
        assert snap["coalesced_requests"] == 1
        assert b.coalesced and b.trials_run == 0

    def test_seedless_requests_share_stream(self, slow_algorithm):
        kwargs = dict(
            graph_spec=TREE, algorithm=slow_algorithm, trials=48, seed=None
        )
        with Estimator(n_jobs=1, chunk_trials=8) as svc:
            first = svc.submit(**kwargs)
            second = svc.submit(**kwargs)
            a = first.result(timeout=30)
            b = second.result(timeout=30)
            snap = svc.counters.snapshot()
        assert a.estimate.trials == 48 and b.estimate.trials == 48
        # Both subscribers drained one shared chunk stream.
        assert snap["trials_executed"] == 48
        assert snap["coalesced_requests"] == 1

    def test_request_records_capture_latency(self):
        with Estimator(n_jobs=1) as svc:
            svc.estimate(
                graph_spec="path:10", algorithm="luby_fast", trials=32, seed=0
            )
            records = list(svc.records)
        assert len(records) == 1
        rec = records[0]
        assert rec.algorithm == "luby_fast"
        assert rec.trials == 32
        assert rec.latency_s >= 0
        assert rec.throughput >= 0


class TestLifecycle:
    def test_result_timeout_then_success(self, slow_algorithm):
        with Estimator(n_jobs=1, chunk_trials=8) as svc:
            handle = svc.submit(
                graph_spec="path:8", algorithm=slow_algorithm, trials=64, seed=1
            )
            with pytest.raises(EstimateTimeout):
                handle.result(timeout=0.001)
            res = handle.result(timeout=30)
        assert res.estimate.trials == 64

    def test_shutdown_leaves_no_zombie_processes(self):
        svc = Estimator(n_jobs=2, clamp_to_host=False, chunk_trials=16)
        try:
            svc.estimate(
                graph_spec=TREE,
                algorithm="fair_tree_fast",
                trials=64,
                seed=0,
                mode="exact",
            )
            procs = svc._scheduler.worker_processes()
            assert procs, "expected live pool workers before shutdown"
        finally:
            svc.shutdown(wait=True, timeout=30)
        deadline = time.monotonic() + 10
        while any(p.is_alive() for p in procs):
            if time.monotonic() > deadline:
                raise AssertionError(f"zombie workers survived shutdown: {procs}")
            time.sleep(0.01)
        mine = {p.pid for p in procs}
        assert not any(c.pid in mine for c in mp.active_children())

    def test_submit_after_shutdown_raises(self):
        svc = Estimator(n_jobs=1)
        svc.shutdown()
        with pytest.raises(RuntimeError):
            svc.submit(graph_spec="path:4", algorithm="luby_fast", trials=8)

    def test_hard_shutdown_cancels_pending(self, slow_algorithm):
        svc = Estimator(n_jobs=1, chunk_trials=4)
        handle = svc.submit(
            graph_spec="path:8",
            algorithm=slow_algorithm,
            trials=400,
            seed=2,
            params={"delay_s": 0.005},
        )
        svc.shutdown(wait=False)
        with pytest.raises((EstimateCancelled, EstimateTimeout)):
            handle.result(timeout=5)

    def test_workers_clamped_to_host(self):
        svc = Estimator(n_jobs=4096)
        try:
            import os

            assert svc.workers <= (os.cpu_count() or 1)
        finally:
            svc.shutdown()
