"""Shared-memory graph transport: handles, attach cache, cleanup."""

import pickle
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest
from multiprocessing import shared_memory

from repro.graphs import (
    GraphShmHandle,
    attach_graph,
    detach_all,
    detach_graph,
    export_graph,
    random_tree,
    shm_enabled,
)
from repro.graphs.shm import _ATTACH_CACHE_SIZE, _ATTACHED
from repro.obs.metrics import MetricsRegistry, use_registry


@pytest.fixture(autouse=True)
def _clean_attachments():
    yield
    detach_all()


def _tree(n=40, seed=3):
    return random_tree(n, seed).graph


def _segment_gone(name: str) -> bool:
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return True
    seg.close()
    return False


class TestExportAttach:
    def test_round_trip_equality(self):
        g = _tree()
        shared = export_graph(g)
        try:
            g2 = attach_graph(shared.handle)
            assert g2.n == g.n
            assert np.array_equal(g2.edges, g.edges)
            assert g2.content_hash() == g.content_hash()
            # Behavior parity through the CSR path.
            for v in (0, g.n // 2, g.n - 1):
                assert np.array_equal(g2.neighbors(v), g.neighbors(v))
        finally:
            detach_all()
            shared.close()

    def test_attach_injects_csr_and_hash(self):
        g = _tree()
        shared = export_graph(g)
        try:
            g2 = attach_graph(shared.handle)
            # Nothing should be recomputed on the worker side.
            assert "_csr" in g2.__dict__
            assert "_content_hash" in g2.__dict__
        finally:
            detach_all()
            shared.close()

    def test_attached_views_are_read_only(self):
        g = _tree()
        shared = export_graph(g)
        try:
            g2 = attach_graph(shared.handle)
            with pytest.raises(ValueError):
                g2.edges[0, 0] = 99
        finally:
            detach_all()
            shared.close()

    def test_attach_cache_returns_identical_object(self):
        g = _tree()
        shared = export_graph(g)
        try:
            first = attach_graph(shared.handle)
            assert attach_graph(shared.handle) is first
            assert detach_graph(shared.handle.content_hash)
            assert not detach_graph(shared.handle.content_hash)
            assert shared.handle.content_hash not in _ATTACHED
        finally:
            detach_all()
            shared.close()

    def test_empty_edge_graph(self):
        from repro.graphs import empty_graph

        g = empty_graph(5)
        shared = export_graph(g)
        try:
            g2 = attach_graph(shared.handle)
            assert g2.n == 5 and g2.m == 0
        finally:
            detach_all()
            shared.close()


class TestHandle:
    def test_handle_pickles_small_and_size_independent(self):
        small = export_graph(_tree(20))
        big = export_graph(_tree(2000))
        try:
            p_small = len(pickle.dumps(small.handle))
            p_big = len(pickle.dumps(big.handle))
            # O(1) in graph size: a 100x bigger graph must not grow the
            # handle (names vary by a couple of bytes).
            assert abs(p_big - p_small) < 64
            assert p_big < len(pickle.dumps(big.graph)) / 10
        finally:
            small.close()
            big.close()

    def test_handle_round_trips_through_pickle(self):
        shared = export_graph(_tree())
        try:
            clone = pickle.loads(pickle.dumps(shared.handle))
            assert isinstance(clone, GraphShmHandle)
            assert clone == shared.handle
            assert clone.nbytes_shared == shared.handle.nbytes_shared
        finally:
            shared.close()


class TestCleanup:
    def test_close_unlinks_all_segments(self):
        shared = export_graph(_tree())
        names = [
            shared.handle.edges.name,
            shared.handle.indptr.name,
            shared.handle.indices.name,
        ]
        shared.close()
        assert shared.closed
        for name in names:
            assert _segment_gone(name)

    def test_close_is_idempotent(self):
        shared = export_graph(_tree())
        shared.close()
        shared.close()

    def test_context_manager_closes(self):
        with export_graph(_tree()) as shared:
            name = shared.handle.edges.name
        assert _segment_gone(name)

    def test_unlink_with_live_attachment_keeps_mapping_valid(self):
        g = _tree()
        shared = export_graph(g)
        g2 = attach_graph(shared.handle)
        shared.close()  # POSIX: name gone, mapping survives
        assert np.array_equal(g2.edges, g.edges)
        detach_all()

    def test_detach_keeps_live_graph_mapped(self):
        # Detaching drops the cache entry only: the mapping must outlive
        # it while the attached graph is still held.  A run that unmaps
        # it dies with SIGSEGV, so it runs in its own interpreter.
        code = textwrap.dedent(
            """
            from repro.graphs import random_tree
            from repro.graphs.shm import attach_graph, detach_graph, export_graph
            g = random_tree(50, 1).graph
            s = export_graph(g)
            g2 = attach_graph(s.handle)
            detach_graph(s.handle.content_hash)
            print(int(g2.edges.sum()), int(g.edges.sum()))
            s.close()
            """
        )
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert run.returncode == 0, run.stderr
        attached, original = run.stdout.split()
        assert attached == original


class TestSharing:
    def test_exports_of_one_graph_share_segments(self):
        g = _tree()
        first = export_graph(g)
        second = export_graph(g)
        assert second.handle == first.handle
        first.close()
        assert not second.closed
        assert not _segment_gone(second.handle.edges.name)
        assert np.array_equal(attach_graph(second.handle).edges, g.edges)
        second.close()
        for spec in (first.handle.edges, first.handle.indptr, first.handle.indices):
            assert _segment_gone(spec.name)

    def test_concurrent_holders_never_lose_a_release(self):
        # Exports are opened and released from different threads; a lost
        # update on the holder count would unlink under a live holder or
        # leave the segments behind.
        g = _tree()
        names: set[str] = set()
        errors: list[BaseException] = []

        def hold_and_release():
            try:
                for _ in range(100):
                    shared = export_graph(g)
                    names.add(shared.handle.edges.name)
                    assert not shared.closed
                    assert not _segment_gone(shared.handle.edges.name)
                    shared.close()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hold_and_release) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[0]
        assert all(_segment_gone(name) for name in names)

    def test_attach_cache_is_bounded(self):
        graphs = [_tree(30 + i, seed=i) for i in range(_ATTACH_CACHE_SIZE + 1)]
        exports = [export_graph(g) for g in graphs]
        registry = MetricsRegistry()

        def attaches():
            snap = registry.snapshot()["counters"]
            return sum(snap.get("shm_attach_total", {}).values())

        try:
            with use_registry(registry):
                attached = [attach_graph(shared.handle) for shared in exports]
                assert len(_ATTACHED) == _ATTACH_CACHE_SIZE
                evicted = exports[0].handle.content_hash
                assert evicted not in _ATTACHED
                # The evicted graph is still mapped while it is held.
                assert np.array_equal(attached[0].edges, graphs[0].edges)
                assert np.array_equal(
                    attached[0].neighbors(1), graphs[0].neighbors(1)
                )
                before = attaches()
                attach_graph(exports[0].handle)
                assert attaches() == before + 1
                assert len(_ATTACHED) == _ATTACH_CACHE_SIZE
        finally:
            for shared in exports:
                shared.close()


class TestEnvGate:
    def test_shm_enabled_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHM", raising=False)
        assert shm_enabled()

    @pytest.mark.parametrize("value", ["0", "false", "OFF"])
    def test_shm_disabled(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SHM", value)
        assert not shm_enabled()

    def test_shm_enabled_other_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "1")
        assert shm_enabled()
