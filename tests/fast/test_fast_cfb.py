"""Tests for the vectorized CNTRLFAIRBIPART kernel."""

import numpy as np
import pytest

import repro.fast.fair_tree as fast_fair_tree
from repro.analysis import is_maximal_independent_set, run_trials
from repro.experiments.datasets import table1_trees
from repro.fast.batched import batched_fair_tree_trials
from repro.fast.cfb import cfb_fast
from repro.fast.engine import neighbor_count
from repro.fast.fair_tree import FastFairTree
from repro.graphs import StaticGraph
from repro.graphs.generators import (
    complete_tree,
    cycle_graph,
    grid_graph,
    path_graph,
    random_bipartite,
    random_tree,
    star_graph,
)
from repro.obs.profile import use_profiler


def cfb_reference(graph, rng, d_hat, active, edge_mask=None, forest=None):
    """The full-budget schedule: ``d_hat`` flood rounds, then the
    origin-checked parity BFS, whether or not the flood has settled.
    *forest* is accepted and ignored: the schedule needs no rooting."""
    n = graph.n
    es, ed = graph.edge_src, graph.edge_dst
    emask = active[es] & active[ed]
    if edge_mask is not None:
        emask = emask & edge_mask
    ces, ced = es[emask], ed[emask]

    ids = np.arange(n, dtype=np.int64)
    max_seen = np.where(active, ids, np.int64(-1))
    for _ in range(d_hat):
        prev = max_seen
        max_seen = prev.copy()
        if ces.size:
            np.maximum.at(max_seen, ced, prev[ces])
    leader = max_seen
    is_leader = active & (leader == ids)

    bits = rng.integers(0, 2, size=n, dtype=np.int64)

    level = np.full(n, -1, dtype=np.int64)
    level[is_leader] = 0
    for _ in range(d_hat):
        if ces.size == 0:
            break
        offer = (level[ces] >= 0) & (level[ced] < 0) & (leader[ces] == leader[ced])
        if not offer.any():
            break
        level[ced[offer]] = level[ces[offer]] + 1

    reached = active & (level >= 0)
    b_leader = bits[np.where(leader >= 0, leader, 0)]
    joined = reached & ((level + b_leader) % 2 == 0)
    if ces.size:
        peer_count = neighbor_count(active, es, ed, n, edge_mask=emask)
    else:
        peer_count = np.zeros(n, dtype=np.int64)
    joined |= is_leader & (peer_count == 0)
    return joined


@pytest.fixture(scope="module")
def paper_trees():
    """The six Table I trees (the city scaled to 600 nodes)."""
    return [tree.graph for tree in table1_trees(city_n=600)]


def _sweep_graphs(kind):
    if kind == "tree":
        return [random_tree(n, seed=s).graph for s, n in enumerate((2, 17, 40, 90))]
    if kind == "path":
        return [path_graph(n) for n in (1, 2, 9, 33)]
    if kind == "cycle":
        return [cycle_graph(n) for n in (3, 8, 13, 30)]
    if kind == "grid":
        return [grid_graph(r, c) for r, c in ((1, 5), (3, 4), (5, 7), (6, 6))]
    shapes = ((5, 6, 0.3), (10, 12, 0.15), (20, 15, 0.08), (8, 30, 0.05))
    return [random_bipartite(a, b, p, seed=s) for s, (a, b, p) in enumerate(shapes)]


class TestCfbFast:
    def test_full_tree_is_mis(self, rng):
        for seed in range(4):
            g = random_tree(40, seed=seed).graph
            d = g.diameter()
            joined = cfb_fast(g, rng, d_hat=max(d, 1), active=np.ones(g.n, bool))
            assert is_maximal_independent_set(g, joined)

    def test_join_probability_half(self, rng):
        g = path_graph(6)
        trials = 1500
        counts = np.zeros(6)
        for _ in range(trials):
            counts += cfb_fast(g, rng, d_hat=6, active=np.ones(6, bool))
        freqs = counts / trials
        assert np.all(np.abs(freqs - 0.5) < 0.06)

    def test_isolated_active_node_joins(self, rng):
        g = path_graph(3)
        active = np.array([True, False, True])
        joined = cfb_fast(g, rng, d_hat=3, active=active)
        assert joined[0] and joined[2]

    def test_inactive_nodes_never_join(self, rng):
        g = star_graph(8)
        active = np.zeros(8, dtype=bool)
        active[1:4] = True
        for _ in range(10):
            joined = cfb_fast(g, rng, d_hat=4, active=active)
            assert not joined[0] and not joined[4:].any()

    def test_edge_mask_partitions(self, rng):
        """Cutting the middle edge of a path creates two components, each
        covered independently."""
        g = path_graph(6)
        emask = ~((g.edge_src == 2) & (g.edge_dst == 3))
        emask &= ~((g.edge_src == 3) & (g.edge_dst == 2))
        joined = cfb_fast(g, rng, d_hat=4, active=np.ones(6, bool), edge_mask=emask)
        left, right = joined[:3], joined[3:]
        # each side of the cut is independently an alternating MIS
        assert left.tolist() in ([True, False, True], [False, True, False])
        assert right.tolist() in ([True, False, True], [False, True, False])

    def test_small_d_hat_leaves_far_nodes_out(self, rng):
        g = path_graph(30)
        joined = cfb_fast(g, rng, d_hat=2, active=np.ones(30, bool))
        # with D̂=2 the BFS reaches ≤ 2 hops from each self-elected leader;
        # certainly not all 30 nodes can be covered
        covered = joined.copy()
        covered[g.edge_dst[joined[g.edge_src]]] = True
        assert not covered.all()

    def test_alternation_within_leader_region(self, rng):
        g = path_graph(9)
        joined = cfb_fast(g, rng, d_hat=9, active=np.ones(9, bool))
        assert joined.tolist() in (
            [True, False] * 4 + [True],
            [False, True] * 4 + [False],
        )


class TestSettledFloodMatchesFullSchedule:
    """Stopping the flood once it settles, and reading BFS levels from it,
    must not change membership or the random numbers drawn."""

    KINDS = ("tree", "path", "cycle", "grid", "bipartite")

    @pytest.mark.parametrize("kind", KINDS)
    def test_sweep_matches_reference(self, kind):
        sweep_rng = np.random.default_rng(self.KINDS.index(kind))
        for g in _sweep_graphs(kind):
            for share in (1.0, 0.8, 0.4):
                for cut in (False, True):
                    for d_hat in range(16):
                        active = sweep_rng.random(g.n) < share
                        edge_mask = None
                        if cut:
                            coins = sweep_rng.integers(0, 2, size=g.m)
                            edge_mask = np.concatenate([coins, coins]) == 0
                        seed = int(sweep_rng.integers(1 << 32))
                        rng_new = np.random.default_rng(seed)
                        rng_ref = np.random.default_rng(seed)
                        got = cfb_fast(g, rng_new, d_hat, active, edge_mask)
                        want = cfb_reference(g, rng_ref, d_hat, active, edge_mask)
                        case = (kind, g.n, share, cut, d_hat)
                        assert np.array_equal(got, want), case
                        state = rng_new.bit_generator.state
                        assert state == rng_ref.bit_generator.state, case

    @pytest.mark.parametrize("d_hat, rounds, fallback", [(2, 2, 1), (30, 29, 0)])
    def test_path_pins_both_code_paths(self, d_hat, rounds, fallback):
        """On a 30-node path the flood cannot settle in 2 rounds (the
        fallback BFS runs) and settles after 29 (its levels are used).
        Rooted at one end, the path's leader sits 29 hops below the top
        of a 29-deep component, so the rooting cannot certify either
        budget and both calls flood."""
        g = path_graph(30)
        active = np.ones(30, dtype=bool)
        for seed in range(5):
            with use_profiler() as prof:
                got = cfb_fast(
                    g, np.random.default_rng(seed), d_hat, active,
                    forest=g.forest_layout,
                )
            want = cfb_reference(g, np.random.default_rng(seed), d_hat, active)
            assert np.array_equal(got, want)
            counts = prof.report()["counts"]
            assert counts["cfb.flood_rounds"] == rounds
            assert counts.get("cfb.bfs_fallback", 0) == fallback
            assert "cfb.forest_calls" not in counts

    @pytest.mark.parametrize("gamma", [None, 2, 4])
    def test_fair_tree_counts_unchanged(self, monkeypatch, gamma, paper_trees):
        graphs = [random_tree(40, seed=1).graph, path_graph(30), grid_graph(4, 5)]

        def counts():
            out = []
            for seed, g in enumerate(graphs + paper_trees):
                small = g.n < 100
                alg = FastFairTree(gamma=gamma)
                out.append(run_trials(alg, g, 40 if small else 6, seed=seed).counts)
                batched = batched_fair_tree_trials(
                    g, 70 if small else 6, seed=seed, batch=32 if small else 3,
                    gamma=gamma,
                )
                out.append(batched.counts)
            return out

        got = counts()
        monkeypatch.setattr(fast_fair_tree, "cfb_fast", cfb_reference)
        want = counts()
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


class TestForestPath:
    """Reading a call's outcome off the rooting must give the flood's
    membership and draw the same random numbers, and must hand every call
    it cannot certify to the flood."""

    @staticmethod
    def _forests():
        graphs = [random_tree(n, seed=s).graph for s, n in enumerate((2, 17, 90, 300))]
        graphs += [path_graph(n) for n in (1, 2, 9, 33)]
        graphs += [star_graph(12), complete_tree(3, 4).graph]
        graphs.append(StaticGraph.from_edges(9, [(0, 5), (5, 2), (3, 4), (6, 8)]))
        graphs.append(StaticGraph.from_edges(4, []))  # m = 0
        return graphs

    def _check(self, g, rng, d_hat, active, edge_mask=None):
        seed = int(rng.integers(1 << 32))
        rng_new = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        got = cfb_fast(g, rng_new, d_hat, active, edge_mask, forest=g.forest_layout)
        want = cfb_reference(g, rng_ref, d_hat, active, edge_mask)
        case = (g.n, g.m, d_hat, int(active.sum()))
        assert np.array_equal(got, want), case
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state, case

    @pytest.mark.parametrize("mask", ["none", "symmetric", "asymmetric"])
    def test_sweep_matches_reference(self, mask):
        rng = np.random.default_rng(("none", "symmetric", "asymmetric").index(mask))
        forests = self._forests()
        with use_profiler() as prof:
            for g in forests:
                assert g.forest_layout is not None
                for share in (1.0, 0.7, 0.3):
                    for d_hat in range(0, 24, 3):
                        active = rng.random(g.n) < share
                        edge_mask = None
                        if mask != "none":
                            coins = rng.integers(0, 2, size=g.m)
                            edge_mask = np.concatenate([coins, coins]) == 0
                            if mask == "asymmetric" and g.m:
                                edge_mask[g.m + int(rng.integers(g.m))] ^= True
                        self._check(g, rng, d_hat, active, edge_mask)
        report = prof.report()
        forest = report["counts"].get("cfb.forest_calls", 0)
        flood = report["phases"].get("cfb.election", {}).get("calls", 0)
        if mask == "asymmetric":
            # every forest with an edge floods; only m = 0 reads the rooting
            edgeless = sum(g.m == 0 for g in forests)
            assert forest == edgeless * 3 * 8 and flood > 0
        else:
            # the certificate both holds and fails across the sweep
            assert forest > 0 and flood > 0

    def test_isolated_active_nodes_join(self):
        g = path_graph(7)
        active = np.array([1, 0, 1, 1, 0, 0, 1], dtype=bool)
        rng = np.random.default_rng(5)
        for _ in range(20):
            joined = cfb_fast(g, rng, 4, active, forest=g.forest_layout)
            assert joined[0] and joined[6] and not (joined[2] and joined[3])
            assert not joined[~active].any()
            self._check(g, rng, 4, active)

    @pytest.mark.parametrize("graph", [grid_graph(4, 5), cycle_graph(9)])
    def test_non_forests_flood(self, graph):
        assert graph.rooting is None and graph.forest_layout is None
        rng = np.random.default_rng(0)
        active = np.ones(graph.n, dtype=bool)
        with use_profiler() as prof:
            self._check(graph, rng, 6, active)
        report = prof.report()
        assert report["phases"]["cfb.election"]["calls"] == 1
        assert "cfb.forest_calls" not in report["counts"]

    def test_table1_calls_take_the_forest_path(self):
        """At the default γ the rooting certifies at least 99.9% of
        FAIRTREE's CFB calls on the paper's six trees."""
        forest = flood = 0
        for tree in table1_trees():
            with use_profiler() as prof:
                run_trials(FastFairTree(), tree.graph, 60, seed=7)
            report = prof.report()
            forest += report["counts"].get("cfb.forest_calls", 0)
            flood += report["phases"].get("cfb.election", {}).get("calls", 0)
        assert forest + flood == 6 * 60 * 3
        assert forest / (forest + flood) >= 0.999
