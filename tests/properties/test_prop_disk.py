"""Property-based tests for the on-disk pipeline (hypothesis).

Any simple graph must survive ``save_reprograph`` → memmap
``load_reprograph`` → the pickle a pool worker's pipe carries, with
identical content, pre-materialized CSR, and behavior parity.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import StaticGraph, load_reprograph, save_reprograph
from repro.graphs.snap import load_snap_edgelist


@st.composite
def edge_lists(draw, max_n=12):
    """Random simple graphs as (n, edge set)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
        if possible
        else st.just([])
    )
    return n, edges


class TestReprographProperties:
    @given(edge_lists(), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_identity(self, tmp_path_factory, ne, compact):
        n, edges = ne
        g = StaticGraph.from_edges(n, edges)
        path = tmp_path_factory.mktemp("rg") / "g.reprograph"
        save_reprograph(path, g, compact=compact)
        g2 = load_reprograph(path, verify=True)
        assert g2 == g
        assert g2.content_hash() == g.content_hash()
        assert "_csr" in g2.__dict__
        indptr, indices = g2._csr
        ref_ptr, ref_idx = g._csr
        assert np.array_equal(indptr, ref_ptr)
        assert np.array_equal(indices, ref_idx)
        for v in range(min(n, 4)):
            assert np.array_equal(g2.neighbors(v), g.neighbors(v))

    @given(edge_lists())
    @settings(max_examples=25, deadline=None)
    def test_shared_export_of_memmap_load(self, tmp_path_factory, ne):
        from multiprocessing.reduction import ForkingPickler

        n, edges = ne
        g = StaticGraph.from_edges(n, edges)
        path = tmp_path_factory.mktemp("rg") / "g.reprograph"
        save_reprograph(path, g)
        loaded = load_reprograph(path)
        sent = ForkingPickler.loads(ForkingPickler.dumps(loaded))
        assert sent == g
        assert sent.__dict__["_content_hash"] == g.content_hash()
        for got, want in zip(sent.__dict__["_csr"], g._csr):
            assert np.array_equal(got, want)


class TestSnapProperties:
    @given(edge_lists(), st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_snap_render_parse_identity(self, tmp_path_factory, ne, chunk_bytes):
        """Rendering any graph as a SNAP file (both directions, comment
        noise) and re-parsing it at an arbitrary chunk size is lossless."""
        n, edges = ne
        g = StaticGraph.from_edges(n, edges)
        lines = ["# rendered by test"]
        for u, v in g.edges.tolist():
            lines.append(f"{u}\t{v}")
            lines.append(f"{v} {u}")
        path = tmp_path_factory.mktemp("snap") / "g.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = load_snap_edgelist(path, chunk_bytes=chunk_bytes)
        if g.m == 0:
            assert result.m == 0
            return
        # compaction keeps only vertices that appear in some edge
        used = np.unique(g.edges)
        assert result.node_ids is not None
        assert result.node_ids.tolist() == used.tolist()
        relabel = {int(old): i for i, old in enumerate(used)}
        expected = StaticGraph.from_edges(
            len(used),
            [(relabel[int(u)], relabel[int(v)]) for u, v in g.edges.tolist()],
        )
        assert result.graph.content_hash() == expected.content_hash()
