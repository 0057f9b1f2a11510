"""Unit tests for RootedTree."""

import networkx as nx
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
        parent = g.forest_layout.parent
        assert np.array_equal(parent, RootedTree.from_graph(g).parent)
        assert g.forest_layout is g.forest_layout

    def test_forest_layout(self):
        for g in (
            random_tree(60, seed=2).graph,
            path_graph(9),
            StaticGraph.from_edges(8, [(0, 5), (5, 2), (3, 4), (6, 7)]),
            StaticGraph.from_edges(3, []),
            StaticGraph.from_edges(0, []),
        ):
            tree = RootedTree.from_graph(g)
            lay = g.forest_layout
            assert np.array_equal(lay.parent, tree.parent)
            assert np.array_equal(lay.depth, tree.depth)
            assert np.array_equal(lay.roots, tree.roots)
            kids = np.nonzero(tree.parent >= 0)[0]
            ends = np.sort(np.stack([kids, tree.parent[kids]], axis=1), axis=1)
            assert np.array_equal(g.edges[lay.link[kids]], ends)

    def test_cycles_have_no_rooting(self):
        from repro.graphs.generators import cycle_graph, grid_graph

        dense = cycle_graph(5)  # m >= n: no tours needed
        sparse = StaticGraph.from_edges(6, [(0, 1), (1, 2), (0, 2)])  # m < n
        for g in (dense, sparse):
            assert not g.is_forest()
            assert g.forest_layout is None
            with pytest.raises(GraphValidationError, match="acyclic"):
                RootedTree.from_graph(g)
        assert grid_graph(3, 3).forest_layout is None


def _bfs_rooting(nxg: nx.Graph, root: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Parents and depths of a BFS from *root* in its component and from
    the smallest vertex of every other, by networkx."""
    n = nxg.number_of_nodes()
    parent = np.full(n, -1, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    for comp in nx.connected_components(nxg):
        source = root if root in comp else min(comp)
        for v, p in nx.bfs_predecessors(nxg, source):
            parent[v] = p
        for v, d in nx.single_source_shortest_path_length(nxg, source).items():
            depth[v] = d
    return parent, depth


def _scipy_from_graph(graph: StaticGraph, root: int = 0) -> np.ndarray:
    """Parents as ``RootedTree.from_graph`` found them before it read
    them off Euler tours: one scipy BFS from a virtual super-root wired to
    every component's root (the requested one, else the smallest vertex)."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import breadth_first_order, connected_components

    n = graph.n
    _, labels = connected_components(graph.adjacency_csr(), directed=False)
    roots = np.full(int(labels.max()) + 1, n, dtype=np.int64)
    np.minimum.at(roots, labels, np.arange(n, dtype=np.int64))
    roots[labels[root]] = root
    indptr, indices = graph._csr
    indptr_aug = np.concatenate([indptr, [indptr[-1] + len(roots)]])
    indices_aug = np.concatenate([indices, roots])
    adj = csr_array(
        (np.ones(len(indices_aug), dtype=np.int8), indices_aug, indptr_aug),
        shape=(n + 1, n + 1),
    )
    _, pred = breadth_first_order(adj, n, directed=True, return_predecessors=True)
    parent = pred[:n].astype(np.int64)
    parent[(parent == n) | (parent < 0)] = -1
    return parent


def _random_forest(rng: np.random.Generator) -> StaticGraph:
    """A random tree cut into pieces, relabeled, with isolated vertices."""
    k = int(rng.integers(1, 80))
    tree = random_tree(k, seed=int(rng.integers(1 << 31))).graph
    n = k + int(rng.integers(0, 6))
    edges = rng.permutation(n)[tree.edges[rng.random(tree.m) < 0.8]]
    return StaticGraph.from_edges(n, edges.reshape(-1, 2))


class TestAgainstReferences:
    """The Euler-tour rooting against networkx and the scipy BFS it
    replaced."""

    def test_graph_atlas(self):
        forests = 0
        for nxg in nx.graph_atlas_g()[1:]:  # graph 0 has no nodes
            g = StaticGraph.from_networkx(nxg)
            lay = g.forest_layout
            assert (lay is not None) == nx.is_forest(nxg), nx.to_edgelist(nxg)
            if lay is None:
                with pytest.raises(GraphValidationError):
                    RootedTree.from_graph(g)
                continue
            forests += 1
            parent, depth = _bfs_rooting(nxg)
            assert np.array_equal(lay.parent, parent)
            assert np.array_equal(lay.depth, depth)
            kids = np.flatnonzero(parent >= 0)
            for v in kids:
                assert sorted(g.edges[lay.link[v]]) == sorted((v, parent[v]))
            for k in range(g.n):
                want, _ = _bfs_rooting(nxg, k)
                assert np.array_equal(RootedTree.from_graph(g, root=k).parent, want)
        assert forests == 79

    def test_scipy_rooting(self):
        from repro.experiments.datasets import table1_trees

        graphs = [t.graph for t in table1_trees()]
        graphs.append(random_tree(100_000, seed=5).graph)
        for g in graphs:
            assert np.array_equal(g.forest_layout.parent, _scipy_from_graph(g))
        rng = np.random.default_rng(3)
        for _ in range(200):
            g = _random_forest(rng)
            root = int(rng.integers(g.n))
            got = RootedTree.from_graph(g, root=root).parent
            assert np.array_equal(got, _scipy_from_graph(g, root)), (g.n, root)

    def test_cycles_below_n_edges(self):
        """A graph with fewer edges than vertices can still hold a cycle;
        the tour count must catch it."""
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(200):
            g = _random_forest(rng)
            comp = [c for c in nx.connected_components(g.to_networkx()) if len(c) > 2]
            if not comp:
                continue
            nodes = sorted(comp[int(rng.integers(len(comp)))])
            u, v = rng.choice(nodes, size=2, replace=False)
            if g.has_edge(int(u), int(v)):
                continue
            cyclic = StaticGraph.from_edges(
                g.n, np.concatenate([g.edges, [[min(u, v), max(u, v)]]])
            )
            if cyclic.m >= cyclic.n:
                continue
            assert not cyclic.is_forest()
            assert not nx.is_forest(cyclic.to_networkx())
            checked += 1
        assert checked >= 100
