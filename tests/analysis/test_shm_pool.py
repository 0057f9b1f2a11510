"""TrialPool on worker processes (fork and spawn): its chunk contract,
its start method and its lifecycle.  The shared-memory graph plane
these tests first covered is gone; graphs now cross a worker's pipe
once (tests/graphs/test_shm.py)."""

import multiprocessing as mp
import threading

import numpy as np
import pytest

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
from tests.pool_probes import count_graph_sends


def _tree(n=40, seed=3):
    return random_tree(n, seed).graph


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
        procs = pool.processes
        est = pool.run(48, seed=5)
        pool.close()
        assert np.array_equal(inline.counts, est.counts)
        assert not any(p.is_alive() for p in procs)

    @pytest.mark.slow
    def test_spawn_pool_matches_inline_and_reclaims(self):
        if "spawn" not in mp.get_all_start_methods():
            pytest.skip("spawn unavailable")
        graph = _tree()
        alg = FastLuby()
        inline = run_trials(alg, graph, 32, seed=5)
        pool = TrialPool(alg, graph, workers=2, context="spawn")
        procs = pool.processes
        est = pool.run(32, seed=5)
        pool.close()
        assert np.array_equal(inline.counts, est.counts)
        assert not any(p.is_alive() for p in procs)

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
        pool = TrialPool(FastLuby(), _tree(), workers=2)
        procs = pool.processes
        pool.terminate()
        assert len(procs) == 2
        assert not any(p.is_alive() for p in procs)
        assert pool.processes == []

    def test_close_idempotent(self):
        pool = TrialPool(FastLuby(), _tree(), workers=2)
        pool.close()
        pool.close()


@pytest.fixture
def sends(monkeypatch):
    return count_graph_sends(monkeypatch)


class TestTransportFallback:
    """One transport, with no switch and no shared memory to fall back
    from: the graph is pickled to each worker at most once."""

    def test_shm_false_uses_pickle(self, sends):
        graph = _tree()
        alg = FastLuby()
        inline = run_trials(alg, graph, 32, seed=5)
        with TrialPool(alg, graph, workers=2) as pool:
            est = pool.run(32, seed=5)
            est_again = pool.run(32, seed=5)
        assert np.array_equal(inline.counts, est.counts)
        assert np.array_equal(inline.counts, est_again.counts)
        assert 1 <= sum(sends.values()) <= 2

    def test_env_kill_switch(self, monkeypatch, sends):
        monkeypatch.setenv("REPRO_SHM", "0")
        with TrialPool(FastLuby(), _tree(), workers=2) as pool:
            assert not hasattr(pool, "transport")
            pool.run(32, seed=5)
        assert 1 <= sum(sends.values()) <= 2

    def test_inline_pool_has_inline_transport(self, sends):
        with TrialPool(FastLuby(), _tree(), workers=1) as pool:
            assert pool.processes == []
            pool.run(32, seed=5)
        assert not sends

    def test_shm_unavailable_falls_back(self, monkeypatch):
        from multiprocessing import shared_memory

        def unavailable(*args, **kwargs):
            raise OSError("no shared memory on this host")

        monkeypatch.setattr(shared_memory, "SharedMemory", unavailable)
        graph = _tree()
        alg = FastLuby()
        with TrialPool(alg, graph, workers=2) as pool:
            est = pool.run(32, seed=5)
        inline = run_trials(alg, graph, 32, seed=5)
        assert np.array_equal(inline.counts, est.counts)
