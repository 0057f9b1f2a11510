"""TrialPool over the shared-memory graph transport (fork and spawn)."""

import multiprocessing as mp
import threading

import numpy as np
import pytest
from multiprocessing import shared_memory

from repro.analysis.montecarlo import (
    TrialPool,
    chunk_counts,
    resolve_start_method,
    run_trials,
    vector_chunk_counts,
)
from repro.fast import FastFairRooted, FastLuby
from repro.graphs import random_tree
from repro.obs.metrics import MetricsRegistry, set_enabled
from repro.obs.remote import RemoteTelemetry
from repro.runtime.rng import spawn_trial_seeds


def _tree(n=40, seed=3):
    return random_tree(n, seed).graph


def _segment_gone(name: str) -> bool:
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return True
    seg.close()
    return False


def _handle_names(pool: TrialPool) -> list[str]:
    handle = pool._shared.handle
    return [handle.edges.name, handle.indptr.name, handle.indices.name]


def _submit(pool: TrialPool, chunk, vectorized: bool) -> np.ndarray:
    """One ``submit_chunk`` round trip; returns the delivered counts."""
    done = threading.Event()
    out: dict = {}

    def on_counts(counts):
        out["counts"] = counts
        done.set()

    def on_error(exc):
        out["error"] = exc
        done.set()

    pool.submit_chunk(chunk, vectorized, on_counts, on_error)
    assert done.wait(120), "chunk never completed"
    if "error" in out:
        raise out["error"]
    return out["counts"]


class TestResolveStartMethod:
    def test_explicit_context_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "spawn")
        assert resolve_start_method("fork") == "fork"

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "spawn")
        assert resolve_start_method() == "spawn"

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "warp")
        with pytest.raises(ValueError, match="REPRO_MP_START"):
            resolve_start_method()

    def test_default_prefers_fork_when_available(self, monkeypatch):
        monkeypatch.delenv("REPRO_MP_START", raising=False)
        expected = "fork" if "fork" in mp.get_all_start_methods() else None
        assert resolve_start_method() == expected


class TestShmPool:
    def test_fork_pool_matches_inline_and_reclaims(self):
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("fork unavailable")
        graph = _tree()
        alg = FastLuby()
        inline = run_trials(alg, graph, 48, seed=5)
        pool = TrialPool(alg, graph, workers=2, context="fork")
        assert pool.transport == "shm"
        names = _handle_names(pool)
        est = pool.run(48, seed=5)
        pool.close()
        assert np.array_equal(inline.counts, est.counts)
        for name in names:
            assert _segment_gone(name)

    @pytest.mark.slow
    def test_spawn_pool_matches_inline_and_reclaims(self):
        if "spawn" not in mp.get_all_start_methods():
            pytest.skip("spawn unavailable")
        graph = _tree()
        alg = FastLuby()
        inline = run_trials(alg, graph, 32, seed=5)
        pool = TrialPool(alg, graph, workers=2, context="spawn")
        assert pool.transport == "shm"
        names = _handle_names(pool)
        est = pool.run(32, seed=5)
        pool.close()
        assert np.array_equal(inline.counts, est.counts)
        for name in names:
            assert _segment_gone(name)

    @pytest.mark.parametrize("merge", [False, True], ids=["drop", "merge"])
    @pytest.mark.parametrize("vectorized", [False, True], ids=["exact", "vector"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunk_contract(self, workers, vectorized, merge):
        # One chunk path: whatever the pool shape, submit_chunk delivers
        # exactly the direct counts of its payload, and a merge point
        # absorbs the chunk's telemetry once, unless observability is off.
        graph = _tree()
        alg = FastFairRooted()
        trials = 24
        if vectorized:
            chunk = (np.random.SeedSequence(7), trials)
            expected = vector_chunk_counts(alg, graph, *chunk)
        else:
            chunk = spawn_trial_seeds(7, trials)
            expected = chunk_counts(alg, graph, chunk)
        registry = MetricsRegistry()
        telemetry = RemoteTelemetry(registry) if merge else None

        def merged():
            snap = registry.snapshot()["counters"]
            return (
                sum(snap.get("telemetry_chunks_merged_total", {}).values()),
                sum(snap.get("worker_trials_total", {}).values()),
            )

        with TrialPool(alg, graph, workers=workers, telemetry=telemetry) as pool:
            assert np.array_equal(_submit(pool, chunk, vectorized), expected)
            assert merged() == ((1, trials) if merge else (0, 0))
            set_enabled(False)
            try:
                counts = _submit(pool, chunk, vectorized)
            finally:
                set_enabled(True)
            assert np.array_equal(counts, expected)
            assert merged() == ((1, trials) if merge else (0, 0))

    def test_terminate_reclaims_segments(self):
        graph = _tree()
        pool = TrialPool(FastLuby(), graph, workers=2)
        names = _handle_names(pool)
        pool.terminate()
        for name in names:
            assert _segment_gone(name)

    def test_close_idempotent(self):
        pool = TrialPool(FastLuby(), _tree(), workers=2)
        pool.close()
        pool.close()


class TestTransportFallback:
    def test_shm_false_uses_pickle(self, monkeypatch):
        # With shm off the graph is pickled into each worker, and the
        # counts are those of the inline run.
        monkeypatch.setenv("REPRO_SHM", "0")
        graph = _tree()
        alg = FastLuby()
        inline = run_trials(alg, graph, 32, seed=5)
        pool = TrialPool(alg, graph, workers=2)
        assert pool.transport == "pickle"
        est = pool.run(32, seed=5)
        pool.close()
        assert np.array_equal(inline.counts, est.counts)

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        pool = TrialPool(FastLuby(), _tree(), workers=2)
        assert pool.transport == "pickle"
        assert pool._shared is None
        pool.close()

    def test_inline_pool_has_inline_transport(self):
        pool = TrialPool(FastLuby(), _tree(), workers=1)
        assert pool.transport == "inline"
        pool.close()

    def test_shm_unavailable_falls_back(self, monkeypatch):
        from repro.analysis import montecarlo
        from repro.graphs.shm import ShmUnavailable

        def boom(graph):
            raise ShmUnavailable("simulated")

        monkeypatch.setattr(montecarlo, "export_graph", boom)
        graph = _tree()
        alg = FastLuby()
        pool = TrialPool(alg, graph, workers=2)
        assert pool.transport == "pickle"
        est = pool.run(32, seed=5)
        pool.close()
        inline = run_trials(alg, graph, 32, seed=5)
        assert np.array_equal(inline.counts, est.counts)
