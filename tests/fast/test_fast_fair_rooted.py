"""Tests for the vectorized FAIRROOTED engine and vectorized CV."""

import numpy as np
import pytest

from repro.analysis import is_maximal_independent_set, run_trials
from repro.fast.batched import batched_fair_rooted_trials, vector_runner_for
from repro.fast.fair_rooted import (
    FastColeVishkin,
    FastFairRooted,
    cole_vishkin_colors,
    fair_rooted_run,
)
from repro.graphs import GraphValidationError, RootedTree
from repro.graphs.generators import (
    complete_tree,
    cycle_graph,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
)


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
        batched = batched_fair_rooted_trials(g, 40, seed=3, batch=16)
        pinned = batched_fair_rooted_trials(
            g, 40, seed=3, batch=16, parent=explicit.parent
        )
        assert np.array_equal(batched.counts, pinned.counts)

    def test_graph_is_rooted_once(self, monkeypatch):
        calls = []
        original = RootedTree.from_graph.__func__

        def counting(cls, graph, root=0):
            calls.append(graph)
            return original(cls, graph, root)

        monkeypatch.setattr(RootedTree, "from_graph", classmethod(counting))
        g = random_tree(50, seed=1).graph
        rng = np.random.default_rng(0)
        FastFairRooted().run(g, rng)
        FastFairRooted().run(g, rng)
        FastColeVishkin().run(g, rng)
        runner = vector_runner_for(FastFairRooted())
        runner(FastFairRooted(), g, 8, 0)
        assert len(calls) == 1

    def test_explicit_tree_wins(self):
        t = complete_tree(3, 3)
        other = RootedTree.from_graph(t.graph, root=7)
        for cls in (FastFairRooted, FastColeVishkin):
            got = run_trials(cls(tree=other), t.graph, 20, seed=5).counts
            default = run_trials(cls(), t.graph, 20, seed=5).counts
            assert not np.array_equal(got, default)  # another rooting
        alg = FastFairRooted(tree=other)
        via_runner = vector_runner_for(alg)(alg, t.graph, 24, 9)
        pinned = batched_fair_rooted_trials(t.graph, 24, seed=9, parent=other.parent)
        assert np.array_equal(via_runner, pinned.counts)

    @pytest.mark.parametrize("graph", [cycle_graph(6), grid_graph(3, 3)])
    def test_non_forest_rejected(self, graph):
        rng = np.random.default_rng(0)
        for alg in (FastFairRooted(), FastColeVishkin()):
            with pytest.raises(GraphValidationError):
                alg.run(graph, rng)
        with pytest.raises(GraphValidationError):
            batched_fair_rooted_trials(graph, 4, seed=0)
