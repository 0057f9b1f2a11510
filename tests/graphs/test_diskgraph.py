"""The ``.reprograph`` on-disk columnar format: save, memmap load, errors."""

import numpy as np
import pytest

from repro.graphs import (
    GraphValidationError,
    StaticGraph,
    inspect_reprograph,
    load_reprograph,
    save_reprograph,
)
from repro.graphs.diskgraph import _HEADER_BYTES, REPROGRAPH_MAGIC
from repro.graphs.generators import empty_graph, grid_graph, random_tree


def _tree(n=60, seed=4):
    return random_tree(n, seed).graph


class TestRoundTrip:
    def test_equality_and_hash(self, tmp_path):
        g = _tree()
        p = tmp_path / "g.reprograph"
        nbytes = save_reprograph(p, g)
        assert p.stat().st_size == nbytes
        g2 = load_reprograph(p)
        assert g2 == g
        assert g2.content_hash() == g.content_hash()

    def test_edgeless(self, tmp_path):
        p = tmp_path / "g.reprograph"
        save_reprograph(p, empty_graph(5))
        g2 = load_reprograph(p)
        assert g2.n == 5 and g2.m == 0

    def test_empty_graph(self, tmp_path):
        p = tmp_path / "g.reprograph"
        save_reprograph(p, StaticGraph.from_edges(0, []))
        assert load_reprograph(p).n == 0

    def test_csr_arrives_prematerialized(self, tmp_path):
        g = _tree()
        expected = g._csr
        p = tmp_path / "g.reprograph"
        save_reprograph(p, g)
        g2 = load_reprograph(p)
        # no lazy recomputation: the cached_property slot is already
        # filled from the mapped buffers
        assert "_csr" in g2.__dict__
        assert "_content_hash" in g2.__dict__
        indptr, indices = g2._csr
        assert np.array_equal(indptr, expected[0])
        assert np.array_equal(indices, expected[1])

    def test_load_is_memmap_backed(self, tmp_path):
        g = grid_graph(20, 20)
        p = tmp_path / "g.reprograph"
        save_reprograph(p, g)
        g2 = load_reprograph(p)
        assert isinstance(g2.edges, np.memmap)
        indptr, indices = g2._csr
        assert isinstance(indptr, np.memmap)
        assert isinstance(indices, np.memmap)

    def test_loaded_buffers_read_only(self, tmp_path):
        p = tmp_path / "g.reprograph"
        save_reprograph(p, _tree())
        g2 = load_reprograph(p)
        with pytest.raises(ValueError):
            g2.edges[0, 0] = 99

    def test_behavior_parity_through_csr(self, tmp_path):
        g = _tree()
        p = tmp_path / "g.reprograph"
        save_reprograph(p, g)
        g2 = load_reprograph(p)
        for v in (0, g.n // 2, g.n - 1):
            assert np.array_equal(g2.neighbors(v), g.neighbors(v))
        assert g2.degrees.tolist() == g.degrees.tolist()


class TestCompact:
    def test_round_trip_widens_to_int64(self, tmp_path):
        g = _tree()
        p = tmp_path / "g.reprograph"
        save_reprograph(p, g, compact=True)
        g2 = load_reprograph(p)
        assert g2.edges.dtype == np.int64
        assert g2 == g
        assert g2.content_hash() == g.content_hash()

    def test_halves_edge_buffers(self, tmp_path):
        g = grid_graph(30, 30)
        wide = tmp_path / "wide.reprograph"
        narrow = tmp_path / "narrow.reprograph"
        save_reprograph(wide, g)
        save_reprograph(narrow, g, compact=True)
        assert narrow.stat().st_size < wide.stat().st_size

    def test_flag_recorded(self, tmp_path):
        p = tmp_path / "g.reprograph"
        save_reprograph(p, _tree(), compact=True)
        assert inspect_reprograph(p)["compact"] is True

    def test_verify_passes(self, tmp_path):
        p = tmp_path / "g.reprograph"
        save_reprograph(p, _tree(), compact=True)
        load_reprograph(p, verify=True)


class TestVerify:
    def test_verify_ok(self, tmp_path):
        p = tmp_path / "g.reprograph"
        save_reprograph(p, _tree())
        g2 = load_reprograph(p, verify=True)
        assert g2.m == _tree().m

    def test_verify_catches_flipped_edge_byte(self, tmp_path):
        p = tmp_path / "g.reprograph"
        save_reprograph(p, _tree())
        head = inspect_reprograph(p)
        with open(p, "r+b") as fh:
            fh.seek(head["edges_offset"])
            fh.write(b"\x07")
        load_reprograph(p)  # unverified load trusts the header
        with pytest.raises(GraphValidationError, match="hash"):
            load_reprograph(p, verify=True)


class TestErrors:
    def test_not_reprograph(self, tmp_path):
        p = tmp_path / "junk.reprograph"
        p.write_bytes(b"\x00" * 200)
        with pytest.raises(GraphValidationError, match="not a .reprograph"):
            load_reprograph(p)

    def test_too_short(self, tmp_path):
        p = tmp_path / "short.reprograph"
        p.write_bytes(REPROGRAPH_MAGIC)
        with pytest.raises(GraphValidationError):
            load_reprograph(p)

    def test_truncated_data(self, tmp_path):
        p = tmp_path / "g.reprograph"
        save_reprograph(p, _tree())
        full = p.read_bytes()
        p.write_bytes(full[: len(full) - 64])
        with pytest.raises(GraphValidationError, match="truncated"):
            load_reprograph(p)

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "g.reprograph"
        save_reprograph(p, _tree())
        with open(p, "r+b") as fh:
            fh.seek(8)
            fh.write(np.uint32(99).tobytes())
        with pytest.raises(GraphValidationError, match="version"):
            load_reprograph(p)

    def test_corrupt_hash_field(self, tmp_path):
        p = tmp_path / "g.reprograph"
        save_reprograph(p, _tree())
        with open(p, "r+b") as fh:
            fh.seek(32)
            fh.write(b"zz not hex digits zz")
        with pytest.raises(GraphValidationError, match="hash"):
            inspect_reprograph(p)

    def test_compact_requires_int32_range(self, tmp_path):
        big = StaticGraph._from_shared_parts(
            np.iinfo(np.int32).max + 2,
            np.empty((0, 2), dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            "0" * 64,
        )
        # _from_shared_parts skips validation, so n can exceed int32
        # without allocating anything — exactly what the guard must catch
        with pytest.raises(GraphValidationError, match="compact"):
            save_reprograph(tmp_path / "g.reprograph", big, compact=True)


class TestInspect:
    def test_metadata(self, tmp_path):
        g = _tree()
        p = tmp_path / "g.reprograph"
        nbytes = save_reprograph(p, g)
        head = inspect_reprograph(p)
        assert head["n"] == g.n
        assert head["m"] == g.m
        assert head["version"] == 1
        assert head["compact"] is False
        assert head["content_hash"] == g.content_hash()
        assert head["file_bytes"] == nbytes
        assert head["edges_offset"] >= _HEADER_BYTES
        assert head["edges_offset"] % 64 == 0
        assert head["indptr_offset"] % 64 == 0
        assert head["indices_offset"] % 64 == 0


class TestIoDispatch:
    def test_save_load_by_suffix(self, tmp_path):
        from repro.graphs.io import load_graph, save_graph

        g = _tree()
        p = tmp_path / "g.reprograph"
        save_graph(p, g)
        assert inspect_reprograph(p)["n"] == g.n
        loaded = load_graph(p)
        assert loaded == g
        assert isinstance(loaded.edges, np.memmap)

    def test_npz_still_npz(self, tmp_path):
        from repro.graphs.io import load_graph, save_graph

        g = _tree()
        p = tmp_path / "g.npz"
        save_graph(p, g)
        loaded = load_graph(p)
        assert loaded == g
        assert not isinstance(loaded.edges, np.memmap)


class TestSharedGraphExport:
    def test_export_from_memmap_loaded_graph(self, tmp_path):
        # A memmap-loaded graph sent to a pool worker arrives equal to the
        # original, with its content hash and CSR.
        from repro.analysis.montecarlo import TrialPool
        from repro.runtime.rng import spawn_trial_seeds
        from tests.pool_probes import GraphCheck

        g = _tree()
        p = tmp_path / "g.reprograph"
        save_reprograph(p, g)
        loaded = load_reprograph(p)
        failures = []
        with TrialPool(GraphCheck(g), loaded, workers=2) as pool:
            pool.submit_chunk(
                spawn_trial_seeds(0, 2), False, lambda counts: None, failures.append
            )
            pool.run(8, seed=1)
        assert failures == []
