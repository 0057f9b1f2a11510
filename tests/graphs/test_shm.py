"""How a graph reaches pool workers: once per worker, then from its memo.

These tests once covered a shared-memory graph plane; that plane is
gone, and each test now pins the same property of the per-worker graph
memo (:class:`~repro.analysis.montecarlo.WorkerSet`).  Graph sends are
counted as pickles of :class:`StaticGraph` in this process.  Chunks
submitted one at a time, each awaited, all run on the set's first
worker, the first idle one.
"""

import os
import sys
import threading
from collections import Counter
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

import repro.graphs
from repro.analysis.montecarlo import (
    _MEMO_SIZE,
    TrialPool,
    WorkerSet,
    chunk_counts,
    run_trials,
)
from repro.fast import FastFairTree, FastLuby
from repro.graphs import empty_graph, random_tree
from repro.runtime.rng import spawn_trial_seeds
from tests.pool_probes import GraphCheck, ReadOnly, SameObject, count_graph_sends


def _tree(n=40, seed=3):
    return random_tree(n, seed).graph


@pytest.fixture
def sends(monkeypatch):
    return count_graph_sends(monkeypatch)


def _chunk(pool, seed=0, trials=4):
    """Run one exact chunk and wait for it; its counts."""
    done = threading.Event()
    out: dict = {}

    def finish(key, value):
        out[key] = value
        done.set()

    seeds = spawn_trial_seeds(seed, trials)
    pool.submit_chunk(
        seeds, False, lambda c: finish("counts", c), lambda e: finish("error", e)
    )
    assert done.wait(60), "chunk never completed"
    if "error" in out:
        raise out["error"]
    return out["counts"]


def _segments() -> set[str]:
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def _matches_inline_without_segments():
    graph = _tree()
    before = _segments()
    with TrialPool(FastLuby(), graph, workers=2) as pool:
        est = pool.run(32, seed=5)
    assert np.array_equal(est.counts, run_trials(FastLuby(), graph, 32, seed=5).counts)
    assert _segments() - before == set()


class TestExportAttach:
    def test_round_trip_equality(self):
        g = _tree()
        with TrialPool(GraphCheck(g), g, workers=2) as pool:
            pool.run(16, seed=0)
            _chunk(pool)

    def test_attach_injects_csr_and_hash(self, sends):
        # The worker rebuilds neither: they cross with the graph.
        g = _tree()
        g.neighbors(0)
        with TrialPool(GraphCheck(g), g, workers=2) as pool:
            _chunk(pool)
        assert sends[g.content_hash()] == 1

    def test_attached_views_are_read_only(self):
        g = _tree()
        g.neighbors(0)
        with TrialPool(ReadOnly(), g, workers=2) as pool:
            _chunk(pool)
            _chunk(pool)

    def test_attach_cache_returns_identical_object(self, sends):
        g = _tree(57, seed=11)
        with TrialPool(SameObject(), g, workers=2) as pool:
            for seed in range(4):
                _chunk(pool, seed)
            pool.run(16, seed=1)
        assert sends[g.content_hash()] <= 2

    def test_empty_edge_graph(self):
        g = empty_graph(5)
        with TrialPool(FastLuby(), g, workers=2) as pool:
            est = pool.run(16, seed=2)
            assert np.array_equal(_chunk(pool), np.full(5, 4))
        assert np.array_equal(est.counts, np.full(5, 16))


class TestHandle:
    def test_handle_pickles_small_and_size_independent(self, sends):
        # Whatever the graph's size, only its first packet to a worker
        # carries it.
        workers = WorkerSet(2)
        try:
            for graph in (_tree(20), _tree(2000)):
                pool = TrialPool(FastLuby(), graph, workers=workers)
                for seed in range(3):
                    _chunk(pool, seed)
                assert sends[graph.content_hash()] == 1
                pool.run(16, seed=0)
                assert sends[graph.content_hash()] <= 2
        finally:
            workers.close()

    def test_handle_round_trips_through_pickle(self):
        # The bytes a pipe carries rebuild the graph with its caches.
        g = _tree()
        g.content_hash()
        g.neighbors(0)
        clone = ForkingPickler.loads(ForkingPickler.dumps(g))
        assert clone == g
        assert clone.__dict__["_content_hash"] == g.content_hash()
        for got, want in zip(clone.__dict__["_csr"], g._csr):
            assert np.array_equal(got, want)


class TestCleanup:
    def test_close_unlinks_all_segments(self):
        before = _segments()
        pool = TrialPool(FastLuby(), _tree(), workers=2)
        procs = pool.processes
        pool.run(16, seed=0)
        pool.close()
        assert not any(p.is_alive() for p in procs)
        assert pool.processes == []
        assert _segments() - before == set()

    def test_close_is_idempotent(self):
        workers = WorkerSet(2)
        procs = workers.processes
        workers.close()
        workers.close()
        workers.close(wait=False)
        assert not any(p.is_alive() for p in procs)

    def test_context_manager_closes(self):
        with TrialPool(FastLuby(), _tree(), workers=2) as pool:
            procs = pool.processes
            pool.run(16, seed=0)
        assert len(procs) == 2
        assert not any(p.is_alive() for p in procs)

    def test_unlink_with_live_attachment_keeps_mapping_valid(self, sends):
        # A worker's copy outlives the pool that sent it: a later pool
        # of another algorithm on the same set reuses it.
        g = _tree()
        workers = WorkerSet(2)
        try:
            TrialPool(FastLuby(), g, workers=workers).close()
            first = TrialPool(FastLuby(), g, workers=workers)
            _chunk(first)
            first.close()
            later = TrialPool(FastFairTree(), g, workers=workers)
            seeds = spawn_trial_seeds(3, 4)
            assert np.array_equal(_chunk(later, 3), chunk_counts(FastFairTree(), g, seeds))
        finally:
            workers.close()
        assert sends[g.content_hash()] == 1

    def test_detach_keeps_live_graph_mapped(self, sends):
        # Workers key graphs by content: an equal graph built anew in the
        # parent crosses no pipe again.
        workers = WorkerSet(2)
        try:
            _chunk(TrialPool(FastLuby(), _tree(), workers=workers))
            rebuilt = _tree()
            counts = _chunk(TrialPool(FastLuby(), rebuilt, workers=workers), 6)
        finally:
            workers.close()
        assert np.array_equal(counts, run_trials(FastLuby(), rebuilt, 4, seed=6).counts)
        assert sends[rebuilt.content_hash()] == 1


class TestEnvGate:
    """``REPRO_SHM`` is no longer read: any value leaves results alone."""

    def test_shm_enabled_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHM", raising=False)
        assert not hasattr(repro.graphs, "shm_enabled")
        _matches_inline_without_segments()

    @pytest.mark.parametrize("value", ["0", "false", "OFF"])
    def test_shm_disabled(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SHM", value)
        _matches_inline_without_segments()

    def test_shm_enabled_other_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "1")
        _matches_inline_without_segments()


class TestSharing:
    def test_exports_of_one_graph_share_segments(self, sends):
        # Pools of three algorithms on one graph run at once; each worker
        # receives the graph at most once.
        g = _tree()
        workers = WorkerSet(2)
        try:
            pools = [
                TrialPool(alg, g, workers=workers)
                for alg in (FastLuby(), FastFairTree(), SameObject())
            ]
            threads = [threading.Thread(target=p.run, args=(32,)) for p in pools]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            workers.close()
        assert 1 <= sends[g.content_hash()] <= 2

    def test_concurrent_holders_never_lose_a_release(self, sends):
        # Threads submit chunks of three graphs at once: every chunk is
        # answered exactly once, correctly, and no worker receives a
        # graph twice.
        graphs = [_tree(30 + i, seed=i) for i in range(3)]
        answers: Counter = Counter()
        errors: list[BaseException] = []
        lock = threading.Lock()
        workers = WorkerSet(2)

        def submit_many(graph, thread):
            pool = TrialPool(FastLuby(), graph, workers=workers)
            for i in range(10):
                seeds = spawn_trial_seeds(100 * thread + i, 2)
                expected = chunk_counts(FastLuby(), graph, seeds)

                def check(counts, key=(thread, i), expected=expected):
                    with lock:
                        answers[key] += 1
                    if not np.array_equal(counts, expected):
                        errors.append(AssertionError(f"chunk {key} miscounted"))

                pool.submit_chunk(seeds, False, check, errors.append)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=submit_many, args=(graphs[t % 3], t))
                for t in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            workers.close()
        assert not errors, errors[0]
        assert len(answers) == 80 and set(answers.values()) == {1}
        assert all(sends[g.content_hash()] <= 2 for g in graphs)

    def test_attach_cache_is_bounded(self, sends):
        # The first worker keeps the last _MEMO_SIZE graphs: a graph it
        # evicted crosses again, one it kept does not, and the counts
        # equal run_trials either way.
        graphs = [_tree(30 + i, seed=i) for i in range(_MEMO_SIZE + 1)]
        workers = WorkerSet(2)
        try:
            pools = [TrialPool(FastLuby(), g, workers=workers) for g in graphs]
            for pool in pools:
                _chunk(pool)
            counts = {i: _chunk(pools[i], seed=7) for i in (0, _MEMO_SIZE)}
        finally:
            workers.close()
        assert sends[graphs[0].content_hash()] == 2
        assert sends[graphs[_MEMO_SIZE].content_hash()] == 1
        for i, got in counts.items():
            assert np.array_equal(got, run_trials(FastLuby(), graphs[i], 4, seed=7).counts)
