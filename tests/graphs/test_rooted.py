"""Unit tests for RootedTree."""

import numpy as np
import pytest

from repro.graphs import GraphValidationError, RootedTree, StaticGraph
from repro.graphs.generators import complete_tree, path_graph, random_tree


class TestConstruction:
    def test_from_graph_roots_at_given_vertex(self):
        t = RootedTree.from_graph(path_graph(5), root=2)
        assert t.parent[2] == -1
        assert sorted(t.roots.tolist()) == [2]

    def test_from_graph_forest_multiple_roots(self):
        g = StaticGraph.from_edges(5, [(0, 1), (2, 3)])
        t = RootedTree.from_graph(g)
        assert len(t.roots) == 3  # components {0,1}, {2,3}, {4}

    def test_parent_shape_validated(self):
        with pytest.raises(GraphValidationError):
            RootedTree(graph=path_graph(3), parent=np.array([-1, 0]))

    def test_cyclic_graph_rejected(self):
        from repro.graphs.generators import cycle_graph

        with pytest.raises(GraphValidationError):
            RootedTree(graph=cycle_graph(4), parent=np.array([-1, 0, 1, 2]))

    def test_consistently_oriented_cycle_rejected(self):
        # Every edge is oriented by the parent array and every parent is
        # adjacent, yet there is no root: only the acyclicity check
        # (pointer doubling) can catch this one.
        from repro.graphs.generators import cycle_graph

        with pytest.raises(GraphValidationError, match="acyclic"):
            RootedTree(graph=cycle_graph(3), parent=np.array([1, 2, 0]))

    def test_two_cycles_rejected(self):
        g = StaticGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(GraphValidationError, match="acyclic"):
            RootedTree(graph=g, parent=np.array([1, 2, 0, 4, 5, 3]))

    def test_parent_out_of_range_rejected(self):
        with pytest.raises(GraphValidationError):
            RootedTree(graph=path_graph(3), parent=np.array([-1, 0, 5]))

    def test_parent_must_be_adjacent(self):
        with pytest.raises(GraphValidationError):
            RootedTree(graph=path_graph(3), parent=np.array([-1, 0, 0]))

    def test_every_edge_oriented(self):
        # parent array that ignores edge (1,2)
        g = path_graph(3)
        with pytest.raises(GraphValidationError):
            RootedTree(graph=g, parent=np.array([-1, 0, -1]))


class TestAccessors:
    def test_depth_path(self):
        t = RootedTree.from_graph(path_graph(4), root=0)
        assert t.depth.tolist() == [0, 1, 2, 3]

    def test_children(self):
        t = complete_tree(2, 2)
        kids = sorted(int(x) for x in t.children(0))
        assert kids == [1, 2]

    def test_leaf_has_no_children(self):
        t = complete_tree(2, 2)
        assert t.children(t.n - 1).size == 0

    def test_n_matches_graph(self):
        t = random_tree(17, seed=0)
        assert t.n == 17

    def test_complete_tree_parents_consistent(self):
        t = complete_tree(3, 3)
        for v in range(1, t.n):
            p = int(t.parent[v])
            assert p >= 0
            assert v in [int(c) for c in t.children(p)]

    def test_random_tree_is_tree(self):
        for seed in range(5):
            t = random_tree(30, seed=seed)
            assert t.graph.is_tree()
            assert (t.parent < 0).sum() == 1


class TestCachedRooting:
    def test_rooting_matches_from_graph_and_is_cached(self):
        g = StaticGraph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert np.array_equal(g.rooting, RootedTree.from_graph(g).parent)
        assert g.rooting is g.rooting

    def test_forest_layout(self):
        for g in (
            random_tree(60, seed=2).graph,
            path_graph(9),
            StaticGraph.from_edges(8, [(0, 5), (5, 2), (3, 4), (6, 7)]),
            StaticGraph.from_edges(3, []),
        ):
            tree = RootedTree.from_graph(g)
            lay = g.forest_layout
            assert lay.parent is g.rooting
            assert np.array_equal(lay.parent, tree.parent)
            assert np.array_equal(lay.depth, tree.depth)
            assert np.array_equal(lay.roots, tree.roots)
            kids = np.nonzero(tree.parent >= 0)[0]
            ends = np.sort(np.stack([kids, tree.parent[kids]], axis=1), axis=1)
            assert np.array_equal(g.edges[lay.link[kids]], ends)

    def test_cycles_have_no_rooting(self):
        from repro.graphs.generators import cycle_graph, grid_graph

        dense = cycle_graph(5)  # m >= n: no components pass needed
        sparse = StaticGraph.from_edges(6, [(0, 1), (1, 2), (0, 2)])  # m < n
        for g in (dense, sparse):
            assert not g.is_forest()
            assert g.rooting is None and g.forest_layout is None
        assert grid_graph(3, 3).forest_layout is None
