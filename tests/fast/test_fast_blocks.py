"""Tests for the vectorized Construct_Block, FAIRBIPART, and COLORMIS."""

import copy
import io
import json

import numpy as np
import pytest

import repro.fast.blocks as blocks
from repro.algorithms import ColorMIS, FairBipart
from repro.algorithms.fair_bipart import default_block_gamma
from repro.analysis import is_maximal_independent_set, run_trials
from repro.cli import _service_loop
from repro.fast.batched import batched_trials, disjoint_power
from repro.fast.blocks import (
    FastColorMIS,
    FastFairBipart,
    construct_block_fast,
    draw_radii,
    greedy_coloring_fast,
)
from repro.graphs.generators import (
    complete_bipartite,
    cycle_graph,
    empty_graph,
    grid_graph,
    path_graph,
    random_bipartite,
    random_tree,
    star_graph,
    triangulated_grid,
)
from repro.obs.profile import use_profiler


def construct_block_reference(
    graph, rng, gamma, values, mode, value_base, p=0.5
):
    """The full-budget schedule: γ superrounds, each scattering every
    column of the ``(n, γ+1)`` leader table one hop."""
    if mode not in ("bit", "color"):
        raise ValueError(f"unknown mode {mode!r}")
    n = graph.n
    es, ed = graph.edge_src, graph.edge_dst
    radii = draw_radii(rng, n, gamma, p)

    # key = id * base + value ; -1 = empty entry
    table = np.full((n, gamma + 1), -1, dtype=np.int64)
    ids = np.arange(n, dtype=np.int64)
    table[ids, radii] = ids * value_base + values

    if es.size:
        col_base = ed[:, None] * (gamma + 1)  # flattened row offsets
        dst_idx = (col_base + np.arange(gamma, dtype=np.int64)[None, :]).ravel()
    for _ in range(gamma):
        if es.size == 0:
            break
        src = table[es][:, 1:]  # entries at index 1..γ, shifted to 0..γ-1
        if mode == "bit":
            # flip the parity bit of non-empty entries
            flipped = (src // value_base) * value_base + (
                (value_base - 1) - (src % value_base)
            )
            src = np.where(src >= 0, flipped, np.int64(-1))
        flat = table.ravel()
        np.maximum.at(flat, dst_idx, src.ravel())
        table = flat.reshape(n, gamma + 1)

    best = table.max(axis=1)
    leader = np.where(best >= 0, best // value_base, np.int64(-1))
    # highest index holding the leader's id = true-distance entry
    is_best = (table // value_base) == leader[:, None]
    is_best &= table >= 0
    rev_top = np.argmax(is_best[:, ::-1], axis=1)
    top_idx = gamma - rev_top
    has_any = is_best.any(axis=1)
    in_block = has_any & (top_idx > 0)
    leader_value = np.where(
        in_block, table[ids, np.clip(top_idx, 0, gamma)] % value_base, np.int64(-1)
    )
    return in_block, leader, leader_value


def bfs_distances(graph):
    """``dist[u, v]``: hop distance, -1 between components."""
    n = graph.n
    return np.array([graph.bfs_levels([u]) for u in range(n)]).reshape(n, n)


def construct_block_spec(dist, radii, values, mode):
    """Construct_Block from its definition, by BFS distances ``d``.

    A node's leader is the largest id ``u`` with ``d(u, v) <= r_u``; it is
    a block member iff ``d(leader, v) < r_leader``, and reads the leader's
    bit flipped ``d`` times (bit mode) or its value unchanged (color mode).
    """
    n = dist.shape[0]
    in_block = np.zeros(n, dtype=bool)
    leader = np.full(n, -1, dtype=np.int64)
    leader_value = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        reach = (dist[:, v] >= 0) & (dist[:, v] <= radii)
        u = int(np.flatnonzero(reach).max())
        d = int(dist[u, v])
        leader[v] = u
        if d < radii[u]:
            in_block[v] = True
            leader_value[v] = values[u] ^ (d % 2) if mode == "bit" else values[u]
    return in_block, leader, leader_value


BLOCK_KINDS = (
    "tree",
    "path",
    "grid",
    "bipartite",
    "odd_cycle",
    "triangulated",
    "star",
    "edgeless",
)


def _block_graphs(kind):
    if kind == "tree":
        return [random_tree(n, seed=s).graph for s, n in enumerate((2, 16, 60))]
    if kind == "path":
        return [path_graph(n) for n in (1, 9, 33)]
    if kind == "grid":
        return [grid_graph(r, c) for r, c in ((3, 4), (5, 7))]
    if kind == "bipartite":
        shapes = ((5, 6, 0.3), (10, 12, 0.15))
        return [random_bipartite(a, b, q, seed=s) for s, (a, b, q) in enumerate(shapes)]
    if kind == "odd_cycle":
        return [cycle_graph(n) for n in (3, 9, 13)]
    if kind == "triangulated":
        return [triangulated_grid(r, c) for r, c in ((3, 3), (4, 5))]
    if kind == "star":
        return [star_graph(9)]
    return [empty_graph(n) for n in (0, 1, 7)]


def _block_cases(kind, copies_options=(1, 64)):
    """``(graph, gamma, mode, base, values, seed)`` over one kind's sweep."""
    sweep_rng = np.random.default_rng(BLOCK_KINDS.index(kind))
    for base_graph in _block_graphs(kind):
        default = default_block_gamma(max(base_graph.n, 1))
        for copies in copies_options:
            g = disjoint_power(base_graph, copies) if copies > 1 else base_graph
            for gamma in (1, 3, default, 20):
                for mode in ("bit", "color"):
                    base = 2 if mode == "bit" else base_graph.max_degree + 1
                    for _ in range(2):
                        values = sweep_rng.integers(0, base, size=g.n)
                        seed = int(sweep_rng.integers(1 << 32))
                        yield g, gamma, mode, base, values, seed


class TestDrawRadii:
    def test_support(self):
        rng = np.random.default_rng(0)
        r = draw_radii(rng, 10000, gamma=6)
        assert r.min() >= 0 and r.max() <= 6

    def test_geometric_marginals(self):
        rng = np.random.default_rng(1)
        r = draw_radii(rng, 40000, gamma=10)
        assert abs(np.mean(r == 0) - 0.5) < 0.02
        assert abs(np.mean(r >= 2) - 0.25) < 0.02

    def test_truncation_mass(self):
        rng = np.random.default_rng(2)
        r = draw_radii(rng, 40000, gamma=2)
        assert abs(np.mean(r == 2) - 0.25) < 0.02


class TestConstructBlock:
    def test_lemma12_connected_nonboundary_same_leader(self, rng):
        """Lemma 12(ii): adjacent block members share their leader."""
        for seed in range(5):
            g = random_tree(60, seed=seed).graph
            bits = rng.integers(0, 2, g.n)
            in_block, leader, _ = construct_block_fast(
                g, rng, gamma=12, values=bits, mode="bit", value_base=2
            )
            es, ed = g.edge_src, g.edge_dst
            both = in_block[es] & in_block[ed]
            assert np.all(leader[es[both]] == leader[ed[both]])

    def test_block_probability_lemma12(self, rng):
        """Lemma 12(i): each node joins a block w.p. >= p(1-p^γ)^n."""
        g = path_graph(12)
        gamma = 8
        trials = 1500
        counts = np.zeros(12)
        for _ in range(trials):
            bits = rng.integers(0, 2, 12)
            in_block, _, _ = construct_block_fast(
                g, rng, gamma=gamma, values=bits, mode="bit", value_base=2
            )
            counts += in_block
        freqs = counts / trials
        bound = 0.5 * (1 - 0.5**gamma) ** 12
        assert freqs.min() >= bound - 3 * np.sqrt(0.25 / trials)

    def test_bit_parity_consistency(self, rng):
        """In a bipartite graph, two adjacent members of the same block
        must read opposite bits (this is what makes I independent)."""
        for seed in range(5):
            g = random_tree(40, seed=seed).graph
            bits = rng.integers(0, 2, g.n)
            in_block, leader, val = construct_block_fast(
                g, rng, gamma=12, values=bits, mode="bit", value_base=2
            )
            es, ed = g.edge_src, g.edge_dst
            both = in_block[es] & in_block[ed]
            assert np.all(val[es[both]] != val[ed[both]])

    def test_color_mode_propagates_unchanged(self, rng):
        g = star_graph(10)
        colors = np.arange(10) % 4
        in_block, leader, val = construct_block_fast(
            g, rng, gamma=6, values=colors, mode="color", value_base=4
        )
        members = np.nonzero(in_block)[0]
        for v in members.tolist():
            assert val[v] == colors[leader[v]]

    def test_invalid_mode(self, rng):
        with pytest.raises(ValueError):
            construct_block_fast(
                path_graph(3),
                rng,
                gamma=2,
                values=np.zeros(3, dtype=np.int64),
                mode="x",
                value_base=2,
            )


class TestColumnPassMatchesSuperrounds:
    """One top-down pass over the leader table's columns must give the
    table the γ-superround schedule reaches, and draw the same random
    numbers."""

    @pytest.mark.parametrize("kind", BLOCK_KINDS)
    def test_sweep_matches_reference(self, kind):
        for g, gamma, mode, base, values, seed in _block_cases(kind):
            rng_new = np.random.default_rng(seed)
            rng_ref = np.random.default_rng(seed)
            got = construct_block_fast(g, rng_new, gamma, values, mode, base)
            want = construct_block_reference(g, rng_ref, gamma, values, mode, base)
            case = (kind, g.n, gamma, mode, base, seed)
            for a, b in zip(got, want):
                assert np.array_equal(a, b), case
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state, case

    @pytest.mark.parametrize("kind", BLOCK_KINDS)
    def test_sweep_matches_definition(self, kind):
        last = None
        for g, gamma, mode, base, values, seed in _block_cases(kind, (1, 3)):
            if g is not last:  # a graph's cases come in one run
                last, dist = g, bfs_distances(g)
            rng = np.random.default_rng(seed)
            radii = draw_radii(copy.deepcopy(rng), g.n, gamma)
            got = construct_block_fast(g, rng, gamma, values, mode, base)
            want = construct_block_spec(dist, radii, values, mode)
            case = (kind, g.n, gamma, mode, base, seed)
            for a, b in zip(got, want):
                assert np.array_equal(a, b), case

    def test_counts_unchanged(self, monkeypatch):
        graphs = [random_tree(30, seed=1).graph, grid_graph(4, 5), cycle_graph(9)]

        def counts():
            out = []
            for seed, g in enumerate(graphs):
                for alg in (FastFairBipart(), FastColorMIS()):
                    out.append(run_trials(alg, g, 30, seed=seed).counts)
                for alg in (FastFairBipart(), FastColorMIS()):
                    out.append(batched_trials(alg, g, 70, seed=seed).counts)
            return out

        got = counts()
        monkeypatch.setattr(blocks, "construct_block_fast", construct_block_reference)
        want = counts()
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode, base", [("bit", 2), ("color", 5)])
    def test_profiler_counts_columns(self, mode, base):
        """``blocks.columns`` adds the largest radius drawn, once per call."""
        g = disjoint_power(random_tree(40, seed=3).graph, 16)
        gamma = default_block_gamma(40)
        values = np.random.default_rng(0).integers(0, base, size=g.n)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            top = int(draw_radii(copy.deepcopy(rng), g.n, gamma).max())
            with use_profiler() as prof:
                construct_block_fast(g, rng, gamma, values, mode, base)
            assert prof.report()["counts"]["blocks.columns"] == top


BLOCK_CLASSES = (FairBipart, ColorMIS, FastFairBipart, FastColorMIS)


class TestBlockParameterChecks:
    @pytest.mark.parametrize("cls", BLOCK_CLASSES)
    @pytest.mark.parametrize("p", [0.0, 1.0, 1.5, -0.5, float("nan")])
    def test_p_outside_unit_interval_rejected(self, cls, p):
        with pytest.raises(ValueError, match="p must lie in"):
            cls(p=p)

    @pytest.mark.parametrize("cls", BLOCK_CLASSES)
    @pytest.mark.parametrize("gamma", [0, -3])
    def test_gamma_below_one_rejected(self, cls, gamma):
        with pytest.raises(ValueError, match="gamma must be >= 1"):
            cls(gamma=gamma)

    @pytest.mark.parametrize("cls", BLOCK_CLASSES)
    def test_in_range_accepted(self, cls):
        alg = cls(gamma=1, p=0.25)
        assert (alg.gamma, alg.p) == (1, 0.25)

    @pytest.mark.parametrize("gamma, p", [(0, 0.5), (-1, 0.5), (4, 1.0), (4, 0.0)])
    def test_draw_radii_guards(self, gamma, p):
        with pytest.raises(ValueError):
            draw_radii(np.random.default_rng(0), 10, gamma, p)

    @pytest.mark.parametrize(
        "values, mode, base",
        [([0, 1, 2], "bit", 2), ([0, -1, 1], "bit", 2), ([0, 3, 1], "color", 3)],
    )
    def test_values_outside_base_rejected(self, values, mode, base):
        with pytest.raises(ValueError, match="values must lie in"):
            construct_block_fast(
                path_graph(3), np.random.default_rng(0), 2, values, mode, base
            )

    def test_bit_mode_needs_base_two(self):
        with pytest.raises(ValueError, match="value_base 2"):
            construct_block_fast(
                path_graph(3), np.random.default_rng(0), 2, [0, 1, 2], "bit", 3
            )

    def test_served_line_fails_at_submit(self, capsys):
        line = json.dumps(
            {
                "graph": "tree:30:1",
                "algorithm": "fair_bipart_fast",
                "trials": 64,
                "seed": 0,
                "params": {"p": 1.0},
            }
        )
        out = io.StringIO()
        errors = _service_loop(
            [line], out, jobs=1, cache_size=8, mode="auto", include_counts=False
        )
        assert errors == 1
        payload = json.loads(out.getvalue())
        assert "p must lie in (0, 1)" in payload["error"], payload
        assert payload["code"] == "bad_request"
        assert "0 trials executed" in capsys.readouterr().err


class TestFastFairBipart:
    def test_valid(self, rng):
        alg = FastFairBipart(validate=True)
        for g in [
            grid_graph(6, 6),
            random_bipartite(10, 10, 0.2, seed=1),
            random_tree(60, seed=2).graph,
            complete_bipartite(4, 5),
            cycle_graph(9),  # non-bipartite: still a correct MIS
        ]:
            for _ in range(3):
                alg.run(g, rng)

    def test_theorem13_min_probability(self, rng, thorough):
        trials = 3000 if thorough else 1000
        g = grid_graph(4, 4)
        est = run_trials(FastFairBipart(), g, trials, seed=0)
        slack = 3 * np.sqrt(0.125 * 0.875 / trials)
        assert est.min_probability >= 0.125 - slack

    def test_inequality_below_8(self, rng):
        g = random_tree(50, seed=3).graph
        est = run_trials(FastFairBipart(), g, 1500, seed=0)
        lower, _ = est.inequality_bounds()
        assert lower <= 8.0

    def test_larger_gamma_fairer(self, rng):
        """§VI-C: growing c drives inequality toward 4."""
        g = path_graph(30)
        small = run_trials(FastFairBipart(gamma_c=1.0), g, 1500, seed=0)
        large = run_trials(FastFairBipart(gamma_c=4.0), g, 1500, seed=0)
        assert large.min_probability >= small.min_probability - 0.03

    def test_block_fraction_reported(self, rng):
        res = FastFairBipart().run(grid_graph(4, 4), rng)
        assert 0.0 <= res.info["block_fraction"] <= 1.0


class TestGreedyColoringFast:
    def test_proper(self, rng):
        for g in [grid_graph(6, 6), triangulated_grid(5, 5), cycle_graph(9)]:
            colors = greedy_coloring_fast(g, rng, iterations=60)
            es, ed = g.edge_src, g.edge_dst
            both = (colors[es] >= 0) & (colors[ed] >= 0)
            assert not np.any((colors[es] == colors[ed]) & both)

    def test_palette_bound(self, rng):
        g = star_graph(12)
        colors = greedy_coloring_fast(g, rng, iterations=60)
        assert colors.max() <= g.max_degree

    def test_converges(self, rng):
        g = random_tree(100, seed=1).graph
        colors = greedy_coloring_fast(g, rng, iterations=80)
        assert np.all(colors >= 0)


class TestFastColorMIS:
    def test_valid(self, rng):
        alg = FastColorMIS(validate=True)
        for g in [
            triangulated_grid(5, 5),
            grid_graph(5, 5),
            random_tree(50, seed=4).graph,
            cycle_graph(11),
        ]:
            for _ in range(3):
                alg.run(g, rng)

    def test_every_node_joins_eventually(self, rng):
        g = path_graph(8)
        est = run_trials(FastColorMIS(), g, 400, seed=0)
        assert est.min_probability > 0

    def test_k_reported(self, rng):
        g = star_graph(7)
        res = FastColorMIS().run(g, rng)
        assert res.info["k"] == 7


class TestArboricityColoringFast:
    def test_proper_and_small_palette(self, rng):
        import numpy as np

        from repro.fast.blocks import arboricity_coloring_fast
        from repro.graphs.generators import apex_grid

        g = apex_grid(8, 8)
        colors = arboricity_coloring_fast(g, rng, cap=7, iterations=60)
        es, ed = g.edge_src, g.edge_dst
        both = (colors[es] >= 0) & (colors[ed] >= 0)
        assert not np.any((colors[es] == colors[ed]) & both)
        assert colors.max() <= 7  # far below Δ+1

    def test_tree_needs_three_colors(self, rng):
        import numpy as np

        from repro.fast.blocks import arboricity_coloring_fast
        from repro.graphs.generators import random_tree

        g = random_tree(80, seed=1).graph
        colors = arboricity_coloring_fast(g, rng, cap=2, iterations=60)
        assert np.all(colors >= 0)
        assert colors.max() <= 2

    def test_colormis_arboricity_variant(self, rng):
        from repro.fast.blocks import FastColorMIS
        from repro.graphs.generators import apex_grid

        alg = FastColorMIS(coloring="arboricity", validate=True)
        res = alg.run(apex_grid(6, 6), rng)
        assert res.info["k"] <= 9

    def test_corollary18_shape(self, rng):
        """On the apex grid, arboricity-COLORMIS must beat greedy-COLORMIS
        on fairness (smaller k → smaller inequality, Theorem 17)."""
        from repro.analysis import run_trials
        from repro.fast.blocks import FastColorMIS
        from repro.graphs.generators import apex_grid

        g = apex_grid(8, 8)
        arb = run_trials(FastColorMIS(coloring="arboricity"), g, 600, seed=0)
        greedy = run_trials(FastColorMIS(coloring="greedy"), g, 600, seed=0)
        assert arb.min_probability > greedy.min_probability

    def test_name(self):
        from repro.fast.blocks import FastColorMIS

        assert FastColorMIS(coloring="arboricity").name == "color_mis_arb_fast"
