"""End-to-end Estimator tests: exactness, coalescing, lifecycle, pools.

The ISSUE-level guarantees checked here:

* exact mode returns **bit-identical** counts to a serial ``run_trials``
  with the same seed (inline and with a real multiprocess pool);
* concurrent identical requests coalesce — the trials are executed once
  and every subscriber gets the same estimate;
* concurrent identical seedless requests coalesce the same way, and
  cancelling a primary does not fail the requests coalesced onto it;
* seeded chunks draw their seeds from the request seed alone (the
  seeding contract below);
* ``shutdown`` leaves no worker process behind (no zombies), a hard
  shutdown fails every pending request at once, and submitting
  afterwards raises;
* one worker set serves the estimator's whole life, whatever graphs and
  algorithms it runs, and its workers share the parent's resource
  tracker.
"""

import multiprocessing as mp
import os
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis import run_trials
from repro.analysis.montecarlo import chunk_counts, vector_chunk_counts
from repro.core import make
from repro.fast.batched import disjoint_power_cache_clear
from repro.graphs import build_graph, empty_graph
from repro.service import (
    EstimateCancelled,
    EstimateTimeout,
    Estimator,
    Precision,
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

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("algorithm", ["luby_fast", "fair_tree_fast"])
    def test_seeding_contract(self, algorithm, n_jobs):
        """A vectorized fixed budget and a one-round precision request
        both give chunk i the request seed's i-th child, so their counts
        are a function of the seed and ``chunk_trials`` alone."""
        graph = build_graph(TREE)
        alg = make(algorithm)
        chunk = 16

        def one_child_per_chunk(seed, trials, exact):
            sizes = [min(chunk, trials - i) for i in range(0, trials, chunk)]
            children = np.random.SeedSequence(seed).spawn(len(sizes))
            return sum(
                chunk_counts(alg, graph, child.spawn(k))
                if exact
                else vector_chunk_counts(alg, graph, child, k)
                for child, k in zip(children, sizes)
            )

        cap = chunk * n_jobs - 5  # within the first round's quantum
        one_round = Precision(node_ci=0.01, max_trials=cap, min_trials=1)
        with Estimator(
            n_jobs=n_jobs, clamp_to_host=False, chunk_trials=chunk,
            cache_size=0,
        ) as svc:
            fixed = svc.estimate(
                graph=graph, algorithm=algorithm, trials=100, seed=3,
                mode="vectorized",
            )
            assert np.array_equal(
                fixed.estimate.counts, one_child_per_chunk(3, 100, False)
            )
            for mode in ("vectorized", "exact"):
                res = svc.estimate(
                    graph=graph, algorithm=algorithm, precision=one_round,
                    seed=4, mode=mode,
                )
                assert res.trials_run == cap
                assert len(res.convergence.frames) == 1
                assert np.array_equal(
                    res.estimate.counts,
                    one_child_per_chunk(4, cap, mode == "exact"),
                )

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

    @pytest.mark.parametrize("n_requests", [2, 4])
    def test_seedless_requests_share_stream(self, slow_algorithm, n_requests):
        kwargs = dict(
            graph_spec=TREE, algorithm=slow_algorithm, trials=48, seed=None
        )
        with Estimator(n_jobs=1, chunk_trials=8) as svc:
            handles = [svc.submit(**kwargs) for _ in range(n_requests)]
            results = [h.result(timeout=30) for h in handles]
            snap = svc.counters.snapshot()
        assert all(r.estimate.trials == 48 for r in results)
        # N overlapping seedless requests cost one request's trials.
        assert snap["trials_executed"] == 48
        assert snap["coalesced_requests"] == n_requests - 1

    def test_cancelling_primary_keeps_serving_subscribers(
        self, slow_algorithm
    ):
        kwargs = dict(
            graph_spec=TREE, algorithm=slow_algorithm, trials=96, seed=9,
            params={"delay_s": 0.005},
        )
        with Estimator(n_jobs=1, chunk_trials=8) as svc:
            first = svc.submit(**kwargs)
            second = svc.submit(**kwargs)
            time.sleep(0.2)
            first.cancel()
            with pytest.raises(EstimateCancelled):
                first.result(timeout=30)
            res = second.result(timeout=30)
            snap = svc.counters.snapshot()
        assert res.coalesced and res.estimate.trials == 96
        assert snap["trials_executed"] == 96

    def test_racing_identical_submissions_lose_no_request(self):
        """Threads race identical seeded and seedless submissions onto
        more workers than cores: every request completes, and exactly
        the primaries' trials run."""
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Estimator(n_jobs=3, clamp_to_host=False, chunk_trials=8) as svc:

                def burst(seed):
                    return [
                        svc.submit(
                            graph_spec=TREE, algorithm="luby_fast",
                            trials=48, seed=seed,
                        )
                        for _ in range(5)
                    ]

                with ThreadPoolExecutor(4) as pool:
                    futures = [pool.submit(burst, s) for s in (None, 1, None, 1)]
                    handles = [h for f in futures for h in f.result(timeout=60)]
                results = [h.result(timeout=60) for h in handles]
                snap = svc.counters.snapshot()
                live = set(svc._scheduler._live)
        finally:
            sys.setswitchinterval(switch)
        assert all(r.estimate.trials == 48 for r in results)
        primaries = [r for r in results if r.trials_run]
        assert snap["trials_executed"] == 48 * len(primaries)
        assert snap["coalesced_requests"] == sum(r.coalesced for r in results)
        assert len(primaries) + snap["coalesced_requests"] + snap[
            "cache_hits"
        ] == len(results)
        assert not live

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

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_hard_shutdown_cancels_pending(self, slow_algorithm, n_jobs):
        svc = Estimator(n_jobs=n_jobs, clamp_to_host=False, chunk_trials=4)
        kwargs = dict(
            graph_spec="path:8",
            algorithm=slow_algorithm,
            trials=16,
            seed=2,
            params={"delay_s": 0.25},
        )
        # The second request coalesces onto the first.  On a process
        # pool all four 1 s chunks are out by the time shutdown starts.
        handles = [svc.submit(**kwargs) for _ in range(2)]
        time.sleep(0.5)
        svc.shutdown(wait=False)
        for handle in handles:
            with pytest.raises(EstimateCancelled):
                handle.result(timeout=5)

    def test_workers_clamped_to_host(self):
        svc = Estimator(n_jobs=4096)
        try:
            assert svc.workers <= (os.cpu_count() or 1)
        finally:
            svc.shutdown()


def _shm_segments() -> set[str]:
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this host")
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


class TestWorkerSet:
    GRAPHS = ("tree:40:3", "tree:48:1", "tree:32:5")
    ALGORITHMS = ("luby_fast", "fair_tree_fast", "fair_rooted_fast")

    def test_one_worker_set_for_the_service_life(self):
        before = _shm_segments()
        svc = Estimator(n_jobs=2, clamp_to_host=False, chunk_trials=16)
        pid_sets = []
        try:
            for spec in self.GRAPHS:
                for algorithm in self.ALGORITHMS[:2]:
                    res = svc.estimate(
                        graph_spec=spec,
                        algorithm=algorithm,
                        trials=48,
                        seed=3,
                        mode="exact",
                    )
                    serial = run_trials(make(algorithm), build_graph(spec), 48, seed=3)
                    assert np.array_equal(res.estimate.counts, serial.counts)
                    procs = svc._scheduler.worker_processes()
                    pid_sets.append({p.pid for p in procs})
        finally:
            svc.shutdown(wait=True, timeout=30)
        assert len(pid_sets) == 6 and len(pid_sets[0]) == 2
        assert all(pids == pid_sets[0] for pids in pid_sets)
        for proc in procs:
            proc.join(10)
            assert not proc.is_alive()
        assert _shm_segments() - before == set()

    def test_concurrent_pairs_share_one_export_per_graph(self):
        # Three algorithms hold each graph's export at once; the last of
        # them to settle unlinks it, before the service shuts down.
        before = _shm_segments()
        cells = [(spec, alg) for spec in self.GRAPHS[:2] for alg in self.ALGORITHMS]
        with Estimator(n_jobs=2, clamp_to_host=False, chunk_trials=16) as svc:
            handles = [
                svc.submit(graph_spec=spec, algorithm=alg, trials=64, seed=9, mode="exact")
                for spec, alg in cells
            ]
            for (spec, alg), handle in zip(cells, handles):
                serial = run_trials(make(alg), build_graph(spec), 64, seed=9)
                counts = handle.result(timeout=120).estimate.counts
                assert np.array_equal(counts, serial.counts)
            assert _shm_segments() - before == set()

    def test_workers_share_the_parent_resource_tracker(self):
        # A worker with a tracker of its own warns about "leaked"
        # segments when it exits, and unlinks them under the exporter.
        code = textwrap.dedent(
            f"""
            from repro.service import Estimator
            with Estimator(n_jobs=2, clamp_to_host=False, chunk_trials=16) as svc:
                for spec in {self.GRAPHS!r}:
                    svc.estimate(graph_spec=spec, algorithm="luby_fast",
                                 trials=32, seed=1, mode="exact")
            """
        )
        run = subprocess.run(
            [sys.executable, "-W", "ignore::DeprecationWarning", "-c", code],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert "resource_tracker" not in run.stderr, run.stderr
