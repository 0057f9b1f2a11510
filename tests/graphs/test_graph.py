"""Unit tests for the canonical StaticGraph type."""

import numpy as np
import pytest

from repro.graphs import GraphValidationError, StaticGraph
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)


class TestConstruction:
    def test_from_edges_canonicalizes_direction(self):
        g = StaticGraph.from_edges(3, [(2, 0), (1, 2)])
        assert g.edges.tolist() == [[0, 2], [1, 2]]

    def test_rejects_self_loops(self):
        with pytest.raises(GraphValidationError):
            StaticGraph.from_edges(3, [(1, 1)])

    def test_rejects_duplicates(self):
        with pytest.raises(GraphValidationError):
            StaticGraph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphValidationError):
            StaticGraph.from_edges(3, [(0, 3)])

    def test_rejects_negative_vertex(self):
        with pytest.raises(GraphValidationError):
            StaticGraph.from_edges(3, [(-1, 0)])

    def test_rejects_negative_n(self):
        with pytest.raises(GraphValidationError):
            StaticGraph.from_edges(-1, [])

    def test_empty_graph(self):
        g = StaticGraph.from_edges(0, [])
        assert g.n == 0 and g.m == 0

    def test_from_networkx_roundtrip(self):
        import networkx as nx

        nxg = nx.petersen_graph()
        g = StaticGraph.from_networkx(nxg)
        assert g.n == 10 and g.m == 15
        back = g.to_networkx()
        assert nx.is_isomorphic(nxg, back)

    def test_from_networkx_arbitrary_labels(self):
        import networkx as nx

        nxg = nx.Graph([("a", "b"), ("b", "c")])
        g = StaticGraph.from_networkx(nxg)
        assert g.n == 3 and g.m == 2


class TestAccessors:
    def test_degrees_path(self):
        g = path_graph(5)
        assert g.degrees.tolist() == [1, 2, 2, 2, 1]

    def test_degrees_star(self):
        g = star_graph(6)
        assert g.degrees.tolist() == [5, 1, 1, 1, 1, 1]

    def test_max_degree(self):
        assert star_graph(9).max_degree == 8
        assert StaticGraph.from_edges(3, []).max_degree == 0

    def test_neighbors_sorted_content(self):
        g = star_graph(5)
        assert sorted(int(x) for x in g.neighbors(0)) == [1, 2, 3, 4]
        assert [int(x) for x in g.neighbors(3)] == [0]

    def test_neighbors_view_read_only(self):
        g = path_graph(4)
        view = g.neighbors(1)
        with pytest.raises(ValueError):
            view[0] = 99

    def test_has_edge(self):
        g = cycle_graph(5)
        assert g.has_edge(0, 1)
        assert g.has_edge(4, 0)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(2, 2)

    def test_symmetrized_edge_arrays(self):
        g = path_graph(3)
        assert len(g.edge_src) == 2 * g.m
        pairs = set(zip(g.edge_src.tolist(), g.edge_dst.tolist()))
        assert (0, 1) in pairs and (1, 0) in pairs

    def test_len_and_iter(self):
        g = path_graph(4)
        assert len(g) == 4
        assert list(g) == [0, 1, 2, 3]

    def test_eq_and_hash(self):
        a = path_graph(4)
        b = path_graph(4)
        assert a == b
        assert hash(a) == hash(b)
        assert a != path_graph(5)


class TestStructure:
    def test_connected_components_path(self):
        count, labels = path_graph(5).connected_components()
        assert count == 1
        assert len(set(labels.tolist())) == 1

    def test_connected_components_disjoint(self):
        g = StaticGraph.from_edges(5, [(0, 1), (2, 3)])
        count, labels = g.connected_components()
        assert count == 3  # {0,1}, {2,3}, {4}

    def test_is_tree(self):
        assert path_graph(6).is_tree()
        assert not cycle_graph(6).is_tree()
        assert not StaticGraph.from_edges(4, [(0, 1), (2, 3)]).is_tree()

    def test_is_forest(self):
        assert StaticGraph.from_edges(4, [(0, 1), (2, 3)]).is_forest()
        assert not cycle_graph(4).is_forest()

    def test_subgraph_mask_keeps_indices(self):
        g = path_graph(5)
        keep = np.array([True, True, False, True, True])
        sub = g.subgraph_mask(keep)
        assert sub.n == 5  # indices preserved
        assert sub.m == 2  # (0,1) and (3,4) survive

    def test_subgraph_mask_shape_check(self):
        with pytest.raises(GraphValidationError):
            path_graph(5).subgraph_mask(np.array([True, False]))

    def test_bfs_levels_single_source(self):
        levels = path_graph(5).bfs_levels([0])
        assert levels.tolist() == [0, 1, 2, 3, 4]

    def test_bfs_levels_multi_source(self):
        levels = path_graph(5).bfs_levels([0, 4])
        assert levels.tolist() == [0, 1, 2, 1, 0]

    def test_bfs_levels_unreachable(self):
        g = StaticGraph.from_edges(4, [(0, 1)])
        levels = g.bfs_levels([0])
        assert levels[2] == -1 and levels[3] == -1

    def test_diameter_path(self):
        assert path_graph(7).diameter() == 6

    def test_diameter_cycle(self):
        assert cycle_graph(6).diameter() == 3

    def test_diameter_singleton(self):
        assert StaticGraph.from_edges(1, []).diameter() == 0

    def test_diameter_disconnected_raises(self):
        with pytest.raises(GraphValidationError):
            StaticGraph.from_edges(3, [(0, 1)]).diameter()

    def test_diameter_empty_raises(self):
        with pytest.raises(GraphValidationError):
            StaticGraph.from_edges(0, []).diameter()


class TestBipartition:
    def test_path_is_bipartite(self):
        colors = path_graph(5).bipartition()
        assert colors is not None
        assert colors.tolist() == [0, 1, 0, 1, 0]

    def test_even_cycle_bipartite(self):
        assert cycle_graph(6).is_bipartite()

    def test_odd_cycle_not_bipartite(self):
        assert cycle_graph(5).bipartition() is None
        assert not cycle_graph(5).is_bipartite()

    def test_clique_not_bipartite(self):
        assert not complete_graph(4).is_bipartite()

    def test_grid_bipartite(self):
        colors = grid_graph(4, 5).bipartition()
        g = grid_graph(4, 5)
        assert colors is not None
        assert not np.any(colors[g.edge_src] == colors[g.edge_dst])

    def test_disconnected_bipartition(self):
        g = StaticGraph.from_edges(4, [(0, 1), (2, 3)])
        colors = g.bipartition()
        assert colors is not None
        assert colors[0] != colors[1] and colors[2] != colors[3]

    def test_isolated_vertices_colored(self):
        g = StaticGraph.from_edges(3, [])
        colors = g.bipartition()
        assert colors is not None and len(colors) == 3


class TestContentHash:
    def test_stable_across_calls(self):
        g = path_graph(6)
        assert g.content_hash() == g.content_hash()

    def test_equal_graphs_equal_hash(self):
        a = StaticGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        b = StaticGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert a.content_hash() == b.content_hash()

    def test_edge_input_order_invariant(self):
        a = StaticGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        b = StaticGraph.from_edges(4, [(2, 3), (1, 2), (0, 1)])
        c = StaticGraph.from_edges(4, [(3, 2), (1, 0), (2, 1)])
        assert a.content_hash() == b.content_hash() == c.content_hash()

    def test_isomorphic_relabeling_differs(self):
        # content_hash is a labeled-graph identity, not an isomorphism
        # invariant: relabeling the star center must change the digest.
        a = StaticGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        b = StaticGraph.from_edges(4, [(1, 0), (1, 2), (1, 3)])
        assert a.content_hash() != b.content_hash()

    def test_isolated_vertices_matter(self):
        a = StaticGraph.from_edges(3, [(0, 1)])
        b = StaticGraph.from_edges(4, [(0, 1)])
        assert a.content_hash() != b.content_hash()

    def test_empty_vs_nonempty(self):
        assert (
            StaticGraph.from_edges(0, []).content_hash()
            != StaticGraph.from_edges(1, []).content_hash()
        )

    def test_hex_digest_shape(self):
        h = path_graph(3).content_hash()
        assert len(h) == 64 and int(h, 16) >= 0


class TestFromArrays:
    def test_matches_from_edges(self):
        src = np.array([3, 0, 1], dtype=np.int64)
        dst = np.array([1, 2, 2], dtype=np.int64)
        a = StaticGraph.from_arrays(4, src, dst)
        b = StaticGraph.from_edges(4, [(3, 1), (0, 2), (1, 2)])
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_canonicalizes_direction_and_order(self):
        g = StaticGraph.from_arrays(
            4, np.array([3, 2, 1]), np.array([0, 0, 0])
        )
        assert g.edges.tolist() == [[0, 1], [0, 2], [0, 3]]

    def test_dedup_drops_parallel_and_reversed(self):
        g = StaticGraph.from_arrays(
            3, np.array([0, 1, 0, 0]), np.array([1, 0, 1, 2]), dedup=True
        )
        assert g.edges.tolist() == [[0, 1], [0, 2]]

    def test_duplicates_rejected_without_dedup(self):
        with pytest.raises(GraphValidationError):
            StaticGraph.from_arrays(3, np.array([0, 1]), np.array([1, 0]))

    def test_rejects_self_loops(self):
        with pytest.raises(GraphValidationError):
            StaticGraph.from_arrays(3, np.array([1]), np.array([1]))

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphValidationError):
            StaticGraph.from_arrays(3, np.array([0]), np.array([3]))
        with pytest.raises(GraphValidationError):
            StaticGraph.from_arrays(3, np.array([-1]), np.array([0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(GraphValidationError):
            StaticGraph.from_arrays(3, np.array([0, 1]), np.array([1]))
        with pytest.raises(GraphValidationError):
            StaticGraph.from_arrays(
                3, np.array([[0, 1]]), np.array([[1, 2]])
            )

    def test_empty_arrays(self):
        g = StaticGraph.from_arrays(
            3, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert g.n == 3 and g.m == 0

    def test_accepts_narrow_dtypes(self):
        g = StaticGraph.from_arrays(
            300, np.array([0, 1], dtype=np.int16), np.array([2, 299], np.int16)
        )
        assert g.edges.dtype == np.int64
        assert g.edges.tolist() == [[0, 2], [1, 299]]

    def test_huge_n_lexsort_fallback(self):
        # n beyond int32 forces the lexsort branch (fused key would
        # overflow); content must match the fused-key result modulo n.
        n = np.iinfo(np.int32).max + 10
        g = StaticGraph.from_arrays(
            n, np.array([n - 1, 5, 5]), np.array([0, 9, 7])
        )
        assert g.edges.tolist() == [[0, n - 1], [5, 7], [5, 9]]


class TestZeroCopyNormalization:
    def test_canonical_array_returned_as_is(self):
        arr = np.array([[0, 1], [0, 2], [1, 3]], dtype=np.int64)
        g = StaticGraph.from_edges(4, arr)
        assert np.shares_memory(g.edges, arr)

    def test_non_canonical_array_copied(self):
        arr = np.array([[2, 0], [1, 3]], dtype=np.int64)
        g = StaticGraph.from_edges(4, arr)
        assert not np.shares_memory(g.edges, arr)
        assert g.edges.tolist() == [[0, 2], [1, 3]]

    def test_ndarray_list_round_trip(self):
        # regression: ndarray input must not round-trip through
        # list(...) — and must parse element rows correctly.
        arr = np.array([[3, 1], [0, 2]], dtype=np.int32)
        g = StaticGraph.from_edges(4, arr)
        assert g.edges.tolist() == [[0, 2], [1, 3]]
        assert g == StaticGraph.from_edges(4, [(3, 1), (0, 2)])

    def test_non_integral_array_rejected(self):
        with pytest.raises(GraphValidationError):
            StaticGraph.from_edges(3, np.array([[0.5, 1.0]]))

    def test_malformed_shape_rejected(self):
        with pytest.raises(GraphValidationError):
            StaticGraph.from_edges(3, np.array([0, 1, 2]))


class TestCSRConstruction:
    @staticmethod
    def _naive_csr(g):
        """Stable argsort of the symmetrized edge list — the reference
        order the merge-trick construction must reproduce exactly."""
        src = np.concatenate([g.edges[:, 0], g.edges[:, 1]])
        dst = np.concatenate([g.edges[:, 1], g.edges[:, 0]])
        order = np.argsort(src, kind="stable")
        indptr = np.zeros(g.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=g.n), out=indptr[1:])
        return indptr, dst[order]

    @pytest.mark.parametrize(
        "g",
        [
            path_graph(17),
            cycle_graph(12),
            star_graph(9),
            complete_graph(8),
            grid_graph(5, 7),
            StaticGraph.from_edges(6, [(0, 5), (0, 3), (2, 4)]),
            StaticGraph.from_edges(4, []),
        ],
        ids=["path", "cycle", "star", "complete", "grid", "sparse", "empty"],
    )
    def test_matches_naive_stable_argsort(self, g):
        indptr, indices = g._csr
        ref_ptr, ref_idx = self._naive_csr(g)
        assert np.array_equal(indptr, ref_ptr)
        assert np.array_equal(indices, ref_idx)

    def test_random_graphs_match(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(0, 3 * n))
            src = rng.integers(0, n, size=k)
            dst = rng.integers(0, n, size=k)
            keep = src != dst
            g = StaticGraph.from_arrays(n, src[keep], dst[keep], dedup=True)
            indptr, indices = g._csr
            ref_ptr, ref_idx = self._naive_csr(g)
            assert np.array_equal(indptr, ref_ptr)
            assert np.array_equal(indices, ref_idx)
