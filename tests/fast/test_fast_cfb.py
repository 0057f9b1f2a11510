"""Tests for the vectorized CNTRLFAIRBIPART kernel."""

import numpy as np
import pytest

import repro.fast.fair_tree as fast_fair_tree
from repro.analysis import is_maximal_independent_set, run_trials
from repro.fast.batched import batched_fair_tree_trials
from repro.fast.cfb import cfb_fast
from repro.fast.engine import neighbor_count
from repro.fast.fair_tree import FastFairTree
from repro.graphs.generators import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_bipartite,
    random_tree,
    star_graph,
)
from repro.obs.profile import use_profiler


def cfb_reference(graph, rng, d_hat, active, edge_mask=None):
    """The full-budget schedule: ``d_hat`` flood rounds, then the
    origin-checked parity BFS, whether or not the flood has settled."""
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
        fallback BFS runs) and settles after 29 (its levels are used)."""
        g = path_graph(30)
        active = np.ones(30, dtype=bool)
        for seed in range(5):
            with use_profiler() as prof:
                got = cfb_fast(g, np.random.default_rng(seed), d_hat, active)
            want = cfb_reference(g, np.random.default_rng(seed), d_hat, active)
            assert np.array_equal(got, want)
            counts = prof.report()["counts"]
            assert counts["cfb.flood_rounds"] == rounds
            assert counts.get("cfb.bfs_fallback", 0) == fallback

    @pytest.mark.parametrize("gamma", [None, 2, 4])
    def test_fair_tree_counts_unchanged(self, monkeypatch, gamma):
        graphs = [random_tree(40, seed=1).graph, path_graph(30), grid_graph(4, 5)]

        def counts():
            out = []
            for seed, g in enumerate(graphs):
                alg = FastFairTree(gamma=gamma)
                out.append(run_trials(alg, g, 40, seed=seed).counts)
                batched = batched_fair_tree_trials(
                    g, 70, seed=seed, batch=32, gamma=gamma
                )
                out.append(batched.counts)
            return out

        got = counts()
        monkeypatch.setattr(fast_fair_tree, "cfb_fast", cfb_reference)
        want = counts()
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
