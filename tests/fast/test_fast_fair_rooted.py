"""Tests for the vectorized FAIRROOTED engine and vectorized CV."""

import numpy as np
import pytest

import repro.graphs.graph as graph_module
from repro.algorithms.cole_vishkin import ColeVishkinMIS
from repro.algorithms.fair_rooted import FairRooted
from repro.analysis import is_maximal_independent_set, run_trials
from repro.analysis.montecarlo import chunk_counts, vector_chunk_counts
from repro.fast.batched import batched_trials
from repro.fast.fair_rooted import (
    FastColeVishkin,
    FastFairRooted,
    cole_vishkin_colors,
    fair_rooted_run,
)
from repro.fast.fair_tree import FastFairTree
from repro.graphs import GraphValidationError, RootedTree
from repro.graphs.generators import (
    complete_tree,
    cycle_graph,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
)
from repro.runtime.rng import spawn_trial_seeds


class TestVectorizedCV:
    def test_colors_in_range(self):
        t = random_tree(200, seed=0)
        colors = cole_vishkin_colors(t.n, t.parent, np.ones(t.n, bool))
        assert colors.min() >= 0 and colors.max() <= 5

    def test_colors_proper(self):
        t = random_tree(300, seed=1)
        colors = cole_vishkin_colors(t.n, t.parent, np.ones(t.n, bool))
        g = t.graph
        assert not np.any(colors[g.edge_src] == colors[g.edge_dst])

    def test_partial_participation(self):
        t = path_graph(10)
        rooted = RootedTree.from_graph(t)
        part = np.zeros(10, dtype=bool)
        part[2:7] = True
        # parents must be restricted to participants
        safe = np.where(rooted.parent >= 0, rooted.parent, 0)
        parent_ok = part & (rooted.parent >= 0) & part[safe]
        parent = np.where(parent_ok, rooted.parent, -1)
        colors = cole_vishkin_colors(10, parent, part)
        assert np.all(colors[~part] == -1)
        assert np.all(colors[part] >= 0)

    def test_deep_path_proper(self):
        g = path_graph(2000)
        rooted = RootedTree.from_graph(g)
        colors = cole_vishkin_colors(g.n, rooted.parent, np.ones(g.n, bool))
        assert not np.any(colors[g.edge_src] == colors[g.edge_dst])
        assert colors.max() <= 5


class TestFastFairRooted:
    def test_valid(self, rng):
        alg = FastFairRooted(validate=True)
        for seed in range(4):
            g = random_tree(60, seed=seed).graph
            for _ in range(3):
                alg.run(g, rng)

    def test_star_nearly_perfectly_fair(self, rng):
        g = star_graph(20)
        est = run_trials(FastFairRooted(), g, 2000, seed=0)
        # rooted at the center: every node joins w.p. ~1/2 after stage 1,
        # and CV cleans up symmetrically → inequality near 1
        assert est.inequality <= 1.4

    def test_theorem3_bound(self, rng, thorough):
        trials = 4000 if thorough else 1200
        g = random_tree(30, seed=5).graph
        est = run_trials(FastFairRooted(), g, trials, seed=0)
        slack = 3 * np.sqrt(0.25 * 0.75 / trials)
        assert est.min_probability >= 0.25 - slack
        assert est.inequality <= 4 / (0.25 - slack) * 0.25 + 0.6

    def test_explicit_rooting(self, rng):
        t = complete_tree(3, 3)
        alg = FastFairRooted(tree=t, validate=True)
        alg.run(t.graph, rng)

    def test_function_form(self, rng):
        t = complete_tree(2, 3)
        member, info = fair_rooted_run(t.graph, t.parent, rng)
        assert is_maximal_independent_set(t.graph, member)
        assert "stage1_size" in info


_ROOTED = {
    "fair_rooted": FairRooted,
    "cole_vishkin": ColeVishkinMIS,
    "fair_rooted_fast": FastFairRooted,
    "cole_vishkin_fast": FastColeVishkin,
}


class TestCachedRooting:
    """Without ``tree=`` the engines read the graph's cached rooting, which
    is :meth:`RootedTree.from_graph`'s, so seeded results do not move."""

    def test_default_rooting_is_from_graph(self):
        g = random_tree(80, seed=4).graph
        explicit = RootedTree.from_graph(g)
        for cls in (FastFairRooted, FastColeVishkin):
            got = run_trials(cls(), g, 30, seed=2).counts
            want = run_trials(cls(tree=explicit), g, 30, seed=2).counts
            assert np.array_equal(got, want)
        batched = batched_trials(FastFairRooted(), g, 40, seed=3, batch=16)
        pinned = batched_trials(
            FastFairRooted(tree=explicit), g, 40, seed=3, batch=16
        )
        assert np.array_equal(batched.counts, pinned.counts)

    def test_graph_is_rooted_once(self, monkeypatch):
        calls = []
        original = graph_module._root_forest

        def counting(graph, root):
            calls.append(graph)
            return original(graph, root)

        monkeypatch.setattr(graph_module, "_root_forest", counting)
        g = random_tree(50, seed=1).graph
        rng = np.random.default_rng(0)
        FastFairRooted().run(g, rng)
        FastFairRooted().run(g, rng)
        FastColeVishkin().run(g, rng)
        vector_chunk_counts(FastFairRooted(), g, 0, 8)
        chunk_counts(FastFairTree(), g, spawn_trial_seeds(0, 8))
        vector_chunk_counts(FastFairTree(), g, 0, 8)
        FairRooted().run(g, rng)
        ColeVishkinMIS().run(g, rng)
        FairRooted().run(g, rng)
        assert calls == [g]

    @pytest.mark.parametrize("name", list(_ROOTED))
    def test_rooting_of_another_graph_rejected(self, name):
        """A tree given at construction must root the graph the engine
        runs on; another tree of the same size is refused, not run."""
        cls = _ROOTED[name]
        tree = random_tree(40, seed=1)
        other = random_tree(40, seed=2).graph
        rng = np.random.default_rng(0)
        assert cls(tree=tree).run(tree.graph, rng).membership.any()
        with pytest.raises(ValueError, match="does not match the input graph"):
            cls(tree=tree).run(other, rng)
        if hasattr(cls, "union_sweep"):
            with pytest.raises(ValueError, match="does not match"):
                batched_trials(cls(tree=tree), other, 4, seed=0)

    def test_explicit_tree_wins(self):
        t = complete_tree(3, 3)
        other = RootedTree.from_graph(t.graph, root=7)
        for cls in (FastFairRooted, FastColeVishkin):
            got = run_trials(cls(tree=other), t.graph, 20, seed=5).counts
            default = run_trials(cls(), t.graph, 20, seed=5).counts
            assert not np.array_equal(got, default)  # another rooting
        alg = FastFairRooted(tree=other)
        via_runner = vector_chunk_counts(alg, t.graph, 9, 24)
        pinned = batched_trials(FastFairRooted(tree=other), t.graph, 24, seed=9)
        assert np.array_equal(via_runner, pinned.counts)

    @pytest.mark.parametrize("graph", [cycle_graph(6), grid_graph(3, 3)])
    def test_non_forest_rejected(self, graph):
        rng = np.random.default_rng(0)
        for alg in (FastFairRooted(), FastColeVishkin()):
            with pytest.raises(GraphValidationError):
                alg.run(graph, rng)
        with pytest.raises(GraphValidationError):
            batched_trials(FastFairRooted(), graph, 4, seed=0)
