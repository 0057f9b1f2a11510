"""Tests for the batched (disjoint-union) trial engines."""

import numpy as np
import pytest

import repro.fast.batched as batched_module
from repro.analysis import run_trials
from repro.analysis.montecarlo import vector_chunk_counts
from repro.fast.batched import (
    batched_trials,
    disjoint_power,
    disjoint_power_cache_clear,
    disjoint_power_cache_info,
)
from repro.fast.blocks import FastColorMIS, FastFairBipart
from repro.fast.fair_rooted import FastFairRooted
from repro.fast.fair_tree import FastFairTree
from repro.fast.luby import FastLuby
from repro.graphs.generators import (
    complete_tree,
    grid_graph,
    path_graph,
    random_planar_like,
    random_tree,
    star_graph,
)
from repro.graphs.graph import RootedTree
from repro.obs.profile import use_profiler


class TestDisjointPower:
    def test_structure(self):
        g = path_graph(4)
        u = disjoint_power(g, 3)
        assert u.n == 12 and u.m == 9
        count, labels = u.connected_components()
        assert count == 3

    def test_copy_offsets(self):
        g = star_graph(4)
        u = disjoint_power(g, 2)
        # copy 1's center is vertex 4
        assert u.degrees[4] == 3
        assert u.has_edge(4, 5) and not u.has_edge(3, 4)

    def test_single_copy_is_same_object(self):
        g = path_graph(3)
        assert disjoint_power(g, 1) is g

    def test_invalid_copies(self):
        with pytest.raises(ValueError):
            disjoint_power(path_graph(3), 0)

    def test_edgeless(self):
        from repro.graphs.generators import empty_graph

        u = disjoint_power(empty_graph(3), 4)
        assert u.n == 12 and u.m == 0


class TestBatchedLuby:
    def test_counts_bounded(self):
        g = random_tree(20, seed=1).graph
        est = batched_trials(FastLuby(), g, trials=100, seed=0, batch=32)
        assert est.trials == 100
        assert est.counts.max() <= 100

    def test_partial_final_batch(self):
        g = path_graph(6)
        est = batched_trials(FastLuby(), g, trials=70, seed=0, batch=32)
        assert est.trials == 70

    def test_agrees_with_serial_distribution(self):
        """Batched and serial are the same distribution (different stream
        layout), so estimates must agree within sampling error."""
        g = random_tree(25, seed=2).graph
        batched = batched_trials(FastLuby(), g, trials=3000, seed=1, batch=64)
        serial = run_trials(FastLuby(), g, 3000, seed=2)
        se = np.sqrt(2 * 0.25 / 3000)
        assert np.all(
            np.abs(batched.probabilities - serial.probabilities) < 5 * se + 0.02
        )

    def test_star_center_probability(self):
        n = 16
        est = batched_trials(FastLuby(), star_graph(n), trials=4000, seed=3)
        assert est.probabilities[0] == pytest.approx(1 / n, abs=0.02)

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            batched_trials(FastLuby(), path_graph(3), trials=0)

    def test_union_capped_at_vertex_limit(self, monkeypatch):
        """A union never exceeds the fast engines' vertex limit: the cap
        acts exactly like a smaller batch."""
        monkeypatch.setattr(batched_module, "MAX_VERTICES", 100)
        g = path_graph(30)
        with use_profiler() as prof:
            capped = batched_trials(FastLuby(), g, trials=10, seed=0, batch=64)
        assert prof.report()["phases"]["batched.sweep"]["calls"] == 4
        small = batched_trials(FastLuby(), g, trials=10, seed=0, batch=3)
        assert np.array_equal(capped.counts, small.counts)


class TestBatchedFairTree:
    def test_counts_bounded(self):
        g = random_tree(20, seed=1).graph
        est = batched_trials(FastFairTree(), g, trials=80, seed=0, batch=32)
        assert est.trials == 80

    def test_gamma_pinned_to_base_graph(self):
        """The batched run must use γ(n), not γ(C·n) — check by agreement
        with the explicit-γ serial runner."""
        from repro.algorithms.fair_tree import default_gamma

        g = path_graph(12)
        gamma = default_gamma(12)
        batched = batched_trials(
            FastFairTree(gamma=gamma), g, trials=2500, seed=1, batch=50
        )
        serial = run_trials(FastFairTree(gamma=gamma), g, 2500, seed=2)
        assert np.all(
            np.abs(batched.probabilities - serial.probabilities) < 0.06
        )

    def test_theorem8_holds_batched(self):
        g = random_tree(40, seed=5).graph
        est = batched_trials(FastFairTree(), g, trials=2000, seed=0)
        slack = 3 * np.sqrt(0.25 * 0.75 / 2000)
        assert est.min_probability >= 0.25 - slack

    def test_validity_of_union_runs(self):
        """Membership restricted to each copy must be a valid MIS."""
        from repro.analysis import is_maximal_independent_set
        from repro.fast.fair_tree import fair_tree_run
        from repro.algorithms.fair_tree import default_gamma

        g = random_tree(15, seed=6).graph
        union = disjoint_power(g, 8)
        rng = np.random.default_rng(0)
        member, _ = fair_tree_run(union, rng, gamma=default_gamma(15))
        for c in range(8):
            chunk = member[c * 15 : (c + 1) * 15]
            assert is_maximal_independent_set(g, chunk)


class TestUnionMemo:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        disjoint_power_cache_clear()
        yield
        disjoint_power_cache_clear()

    def test_repeat_returns_cached_object(self):
        g = path_graph(5)
        first = disjoint_power(g, 4)
        assert disjoint_power(g, 4) is first
        info = disjoint_power_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1

    def test_distinct_keys_are_distinct_entries(self):
        g = path_graph(5)
        assert disjoint_power(g, 3) is not disjoint_power(g, 4)
        assert disjoint_power_cache_info()["misses"] == 2

    def test_distinct_graphs_do_not_collide(self):
        a = disjoint_power(path_graph(5), 3)
        b = disjoint_power(star_graph(5), 3)
        assert not np.array_equal(a.edges, b.edges)

    def test_lru_eviction_respects_cap(self):
        g = path_graph(5)
        cap = disjoint_power_cache_info()["cap"]
        first = disjoint_power(g, 2)
        for copies in range(3, cap + 3):
            disjoint_power(g, copies)
        assert disjoint_power_cache_info()["size"] == cap
        # copies=2 was the least recently used entry, so it was evicted
        assert disjoint_power(g, 2) is not first

    def test_clear_resets_stats_and_entries(self):
        disjoint_power(path_graph(4), 3)
        disjoint_power_cache_clear()
        info = disjoint_power_cache_info()
        assert info["hits"] == 0 and info["misses"] == 0 and info["size"] == 0

    def test_single_copy_bypasses_cache(self):
        g = path_graph(4)
        assert disjoint_power(g, 1) is g
        assert disjoint_power_cache_info()["size"] == 0


class TestBatchedFairRooted:
    def test_counts_bounded(self):
        g = random_tree(20, seed=1).graph
        est = batched_trials(FastFairRooted(), g, trials=90, seed=0, batch=32)
        assert est.trials == 90
        assert est.counts.max() <= 90 and est.counts.min() >= 0

    def test_agrees_with_serial_distribution(self):
        g = random_tree(25, seed=2).graph
        batched = batched_trials(
            FastFairRooted(), g, trials=3000, seed=1, batch=64
        )
        serial = run_trials(FastFairRooted(), g, 3000, seed=2)
        se = np.sqrt(2 * 0.25 / 3000)
        assert np.all(
            np.abs(batched.probabilities - serial.probabilities) < 5 * se + 0.02
        )

    def test_validity_of_union_runs(self):
        from repro.analysis import is_maximal_independent_set
        from repro.fast.fair_rooted import fair_rooted_run
        from repro.graphs.graph import RootedTree

        g = random_tree(15, seed=6).graph
        parent = RootedTree.from_graph(g).parent
        union = disjoint_power(g, 8)
        offsets = (np.arange(8, dtype=np.int64) * 15)[:, None]
        union_parent = np.where(
            np.broadcast_to(parent, (8, 15)) >= 0,
            np.broadcast_to(parent, (8, 15)) + offsets,
            np.int64(-1),
        ).reshape(-1)
        member, _ = fair_rooted_run(
            union, union_parent, np.random.default_rng(0), base_n=15
        )
        for c in range(8):
            assert is_maximal_independent_set(g, member[c * 15 : (c + 1) * 15])

    def test_base_n_must_divide_union(self):
        from repro.fast.fair_rooted import fair_rooted_run
        from repro.graphs.graph import RootedTree

        g = random_tree(10, seed=1).graph
        parent = RootedTree.from_graph(g).parent
        with pytest.raises(ValueError, match="base_n"):
            fair_rooted_run(g, parent, np.random.default_rng(0), base_n=3)

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            batched_trials(FastFairRooted(), path_graph(3), trials=0)


class TestBatchedFairBipart:
    def test_counts_bounded(self):
        g = random_planar_like(24, seed=1)
        est = batched_trials(FastFairBipart(), g, trials=90, seed=0, batch=32)
        assert est.trials == 90
        assert est.counts.max() <= 90 and est.counts.min() >= 0

    def test_agrees_with_serial_distribution(self):
        g = random_planar_like(24, seed=2)
        batched = batched_trials(
            FastFairBipart(), g, trials=3000, seed=1, batch=64
        )
        serial = run_trials(FastFairBipart(), g, 3000, seed=2)
        se = np.sqrt(2 * 0.25 / 3000)
        assert np.all(
            np.abs(batched.probabilities - serial.probabilities) < 5 * se + 0.02
        )

    def test_validity_of_union_runs(self):
        from repro.analysis import is_maximal_independent_set
        from repro.algorithms.fair_bipart import default_block_gamma
        from repro.fast.blocks import fair_bipart_run

        g = random_planar_like(15, seed=6)
        union = disjoint_power(g, 8)
        member, _ = fair_bipart_run(
            union, np.random.default_rng(0), gamma=default_block_gamma(15, 2.0)
        )
        for c in range(8):
            assert is_maximal_independent_set(g, member[c * 15 : (c + 1) * 15])

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            batched_trials(FastFairBipart(), path_graph(3), trials=0)


class TestBatchedColorMIS:
    def test_counts_bounded(self):
        g = random_planar_like(24, seed=1)
        est = batched_trials(FastColorMIS(), g, trials=90, seed=0, batch=32)
        assert est.trials == 90
        assert est.counts.max() <= 90 and est.counts.min() >= 0

    def test_agrees_with_serial_distribution(self):
        g = random_planar_like(24, seed=2)
        batched = batched_trials(
            FastColorMIS(), g, trials=3000, seed=1, batch=64
        )
        serial = run_trials(FastColorMIS(), g, 3000, seed=2)
        se = np.sqrt(2 * 0.25 / 3000)
        assert np.all(
            np.abs(batched.probabilities - serial.probabilities) < 5 * se + 0.02
        )

    def test_arboricity_agrees_with_serial_distribution(self):
        g = random_planar_like(24, seed=3)
        batched = batched_trials(
            FastColorMIS(coloring="arboricity"), g, trials=3000, seed=1, batch=64
        )
        serial = run_trials(FastColorMIS(coloring="arboricity"), g, 3000, seed=2)
        se = np.sqrt(2 * 0.25 / 3000)
        assert np.all(
            np.abs(batched.probabilities - serial.probabilities) < 5 * se + 0.02
        )

    def test_validity_of_union_runs(self):
        from repro.analysis import is_maximal_independent_set
        from repro.fast.blocks import color_mis_run

        g = random_planar_like(15, seed=6)
        params = FastColorMIS().resolved_params(g)
        union = disjoint_power(g, 8)
        member, _ = color_mis_run(
            union,
            np.random.default_rng(0),
            gamma=params["gamma"],
            k=params["k"],
            iterations=params["iterations"],
            coloring="greedy",
            cap=params["cap"],
        )
        for c in range(8):
            assert is_maximal_independent_set(g, member[c * 15 : (c + 1) * 15])

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            batched_trials(FastColorMIS(), path_graph(3), trials=0)


class TestParameterPinning:
    """Size-derived parameters must come from the base graph, not the union."""

    def test_cole_vishkin_pinned_to_base(self, monkeypatch):
        import repro.fast.fair_rooted as fr
        from repro.algorithms.cole_vishkin import cv_reduction_iterations

        g = random_tree(20, seed=4).graph
        seen = []
        real = fr.cole_vishkin_colors

        def spy(n, parent, participating, init_colors=None, iterations=None):
            seen.append((n, init_colors, iterations))
            return real(n, parent, participating, init_colors, iterations)

        monkeypatch.setattr(fr, "cole_vishkin_colors", spy)
        batched_trials(FastFairRooted(), g, trials=8, seed=0, batch=8)
        assert len(seen) == 1
        union_n, init_colors, iterations = seen[0]
        assert union_n == 160
        assert iterations == cv_reduction_iterations(19)
        assert np.array_equal(init_colors, np.tile(np.arange(20), 8))

    def test_fair_bipart_gamma_pinned_to_base(self, monkeypatch):
        import repro.fast.blocks as blocks
        from repro.algorithms.fair_bipart import default_block_gamma

        g = random_planar_like(24, seed=2)
        seen = []
        real = blocks.construct_block_fast

        def spy(graph, rng, gamma, values, mode, value_base, p=0.5):
            seen.append((graph.n, gamma, mode, value_base))
            return real(graph, rng, gamma, values, mode, value_base, p)

        monkeypatch.setattr(blocks, "construct_block_fast", spy)
        batched_trials(FastFairBipart(), g, trials=6, seed=0, batch=6)
        assert seen == [(144, default_block_gamma(24, 2.0), "bit", 2)]

    def test_color_mis_params_pinned_to_base(self, monkeypatch):
        import repro.fast.blocks as blocks
        from repro.fast.blocks import color_mis_iterations

        g = random_planar_like(24, seed=3)
        expected = FastColorMIS().resolved_params(g)
        seen = {}
        real_color = blocks.greedy_coloring_fast
        real_block = blocks.construct_block_fast

        def color_spy(graph, rng, iterations):
            seen["iterations"] = iterations
            return real_color(graph, rng, iterations)

        def block_spy(graph, rng, gamma, values, mode, value_base, p=0.5):
            seen["gamma"] = gamma
            seen["k"] = value_base
            return real_block(graph, rng, gamma, values, mode, value_base, p)

        monkeypatch.setattr(blocks, "greedy_coloring_fast", color_spy)
        monkeypatch.setattr(blocks, "construct_block_fast", block_spy)
        batched_trials(FastColorMIS(), g, trials=5, seed=0, batch=5)
        assert seen["iterations"] == expected["iterations"]
        assert seen["iterations"] == color_mis_iterations(24)
        assert seen["iterations"] != color_mis_iterations(24 * 5)
        assert seen["gamma"] == expected["gamma"]
        assert seen["k"] == expected["k"]

    def test_arboricity_cap_pinned_to_base(self, monkeypatch):
        import repro.fast.blocks as blocks

        g = random_planar_like(24, seed=3)
        expected = FastColorMIS(coloring="arboricity").resolved_params(g)
        seen = {}
        real = blocks.arboricity_coloring_fast

        def spy(graph, rng, cap, iterations):
            seen["cap"] = cap
            seen["iterations"] = iterations
            return real(graph, rng, cap, iterations)

        monkeypatch.setattr(blocks, "arboricity_coloring_fast", spy)
        batched_trials(
            FastColorMIS(coloring="arboricity"), g, trials=5, seed=0, batch=5
        )
        assert seen["cap"] == expected["cap"]
        assert seen["iterations"] == expected["iterations"]


class TestVectorRunnerRegistry:
    def test_all_five_paper_algorithms_covered(self):
        algorithms = [
            FastLuby(),
            FastFairTree(),
            FastFairRooted(),
            FastFairBipart(),
            FastColorMIS(),
            FastColorMIS(coloring="arboricity"),
            FastLuby(variant="degree"),
        ]
        for algorithm in algorithms:
            assert algorithm.union_sweep is not None, algorithm.name

    def test_unbatchable_variant_returns_none(self):
        from repro.core.registry import make

        assert getattr(make("luby"), "union_sweep", None) is None

    def test_runner_output_matches_direct_batched_call(self):
        g = random_tree(20, seed=7).graph
        counts = vector_chunk_counts(FastFairRooted(), g, 9, 40)
        direct = batched_trials(FastFairRooted(), g, trials=40, seed=9).counts
        assert np.array_equal(counts, direct)


# --------------------------------------------------------------------- #
# Reference: the per-algorithm batched runners that each derived the
# base-graph parameters themselves, kept verbatim as the oracle for the
# engines' own union sweeps.
# --------------------------------------------------------------------- #
def _reference_counts(graph, trials, seed, batch, sweep):
    from repro.analysis.fairness import JoinEstimate
    from repro.runtime.rng import generator_from

    if trials <= 0:
        raise ValueError("trials must be positive")
    rng = generator_from(seed)
    n = graph.n
    fits = max(1, batched_module.MAX_VERTICES // max(n, 1))
    counts = np.zeros(n, dtype=np.int64)
    done = 0
    while done < trials:
        copies = min(batch, fits, trials - done)
        union = disjoint_power(graph, copies)
        member = sweep(union, rng)
        counts += member.reshape(copies, n).sum(axis=0).astype(np.int64)
        done += copies
    return JoinEstimate(counts=counts, trials=trials)


def reference_luby_trials(graph, trials, seed=None, batch=64):
    from repro.fast.luby import luby_sweep

    return _reference_counts(
        graph, trials, seed, batch, lambda union, rng: luby_sweep(union, rng)[0]
    )


def reference_fair_tree_trials(
    graph, trials, seed=None, batch=64, gamma_c=3.0, gamma=None
):
    from repro.algorithms.fair_tree import default_gamma
    from repro.fast.fair_tree import fair_tree_run

    g_eff = gamma if gamma is not None else default_gamma(graph.n, gamma_c)
    return _reference_counts(
        graph,
        trials,
        seed,
        batch,
        lambda union, rng: fair_tree_run(union, rng, gamma=g_eff)[0],
    )


def reference_fair_rooted_trials(graph, trials, seed=None, batch=64, parent=None):
    from repro.fast.fair_rooted import fair_rooted_run
    from repro.graphs.graph import tree_parents

    n = graph.n
    if parent is None:
        parent = tree_parents(graph)
    parent = np.asarray(parent, dtype=np.int64)

    def sweep(union, rng):
        copies = union.n // max(n, 1)
        union_parent = parent
        if copies > 1:
            offsets = (np.arange(copies, dtype=np.int64) * n)[:, None]
            tiled = np.broadcast_to(parent, (copies, n))
            union_parent = np.where(
                tiled >= 0, tiled + offsets, np.int64(-1)
            ).reshape(-1)
        return fair_rooted_run(union, union_parent, rng, base_n=n)[0]

    return _reference_counts(graph, trials, seed, batch, sweep)


def reference_fair_bipart_trials(
    graph, trials, seed=None, batch=64, gamma_c=2.0, gamma=None, p=0.5
):
    from repro.algorithms.fair_bipart import default_block_gamma
    from repro.fast.blocks import fair_bipart_run

    g_eff = gamma if gamma is not None else default_block_gamma(graph.n, gamma_c)
    return _reference_counts(
        graph,
        trials,
        seed,
        batch,
        lambda union, rng: fair_bipart_run(union, rng, g_eff, p=p)[0],
    )


def reference_color_mis_trials(
    graph,
    trials,
    seed=None,
    batch=64,
    k=None,
    coloring="greedy",
    gamma_c=2.0,
    gamma=None,
    p=0.5,
):
    from repro.fast.blocks import color_mis_run

    params = FastColorMIS(
        k=k, coloring=coloring, gamma_c=gamma_c, gamma=gamma, p=p
    ).resolved_params(graph)

    def sweep(union, rng):
        return color_mis_run(
            union,
            rng,
            gamma=params["gamma"],
            k=params["k"],
            iterations=params["iterations"],
            coloring=coloring,
            cap=params["cap"],
            p=p,
        )[0]

    return _reference_counts(graph, trials, seed, batch, sweep)


def reference_trials(algorithm, graph, trials, seed, batch):
    """The old per-class adapters: copy the engine's fields into its runner."""
    if isinstance(algorithm, FastLuby):
        return reference_luby_trials(graph, trials, seed, batch)
    if isinstance(algorithm, FastFairTree):
        return reference_fair_tree_trials(
            graph, trials, seed, batch, algorithm.gamma_c, algorithm.gamma
        )
    if isinstance(algorithm, FastFairRooted):
        tree = algorithm.tree
        return reference_fair_rooted_trials(
            graph, trials, seed, batch, None if tree is None else tree.parent
        )
    if isinstance(algorithm, FastFairBipart):
        return reference_fair_bipart_trials(
            graph, trials, seed, batch, algorithm.gamma_c, algorithm.gamma,
            algorithm.p,
        )
    return reference_color_mis_trials(
        graph, trials, seed, batch, algorithm.k, algorithm.coloring,
        algorithm.gamma_c, algorithm.gamma, algorithm.p,
    )


def _reference_graphs(cycles):
    graphs = [
        random_tree(30, seed=1).graph,
        random_tree(200, seed=2).graph,
        path_graph(17),
        star_graph(12),
        complete_tree(2, 5).graph,
    ]
    return graphs + [grid_graph(4, 5)] if cycles else graphs


def _rooted_elsewhere(g):
    return FastFairRooted(tree=RootedTree.from_graph(g, root=g.n // 2))


# ``make(graph) -> algorithm`` and whether the engine accepts cycles.  At
# the default scales γ truncates so rarely that a γ taken from the union
# hardly shows; the small-scale ``_c`` configurations make it show.
_CONFIGS = [
    pytest.param(lambda g: FastLuby(), True, id="luby"),
    pytest.param(lambda g: FastFairTree(), False, id="fair_tree"),
    pytest.param(lambda g: FastFairTree(gamma=2), False, id="fair_tree_g2"),
    pytest.param(lambda g: FastFairTree(gamma=4), False, id="fair_tree_g4"),
    pytest.param(lambda g: FastFairTree(gamma_c=0.5), False, id="fair_tree_c"),
    pytest.param(lambda g: FastFairRooted(), False, id="fair_rooted"),
    pytest.param(_rooted_elsewhere, False, id="fair_rooted_elsewhere"),
    pytest.param(lambda g: FastFairBipart(), True, id="fair_bipart"),
    pytest.param(
        lambda g: FastFairBipart(gamma=3, p=0.4), True, id="fair_bipart_gamma_p"
    ),
    pytest.param(lambda g: FastFairBipart(gamma_c=0.25), True, id="fair_bipart_c"),
    pytest.param(lambda g: FastColorMIS(), True, id="color_mis"),
    pytest.param(
        lambda g: FastColorMIS(coloring="arboricity"), True, id="color_mis_arb"
    ),
    pytest.param(lambda g: FastColorMIS(k=7), True, id="color_mis_k"),
    pytest.param(lambda g: FastColorMIS(gamma_c=0.25), True, id="color_mis_c"),
]


class TestReferenceSweep:
    """Each engine's ``union_sweep`` pins exactly what the old per-engine
    runners pinned: :func:`batched_trials` equals them bit for bit."""

    @pytest.mark.parametrize("make, cycles", _CONFIGS)
    def test_counts_equal_reference(self, make, cycles):
        for seed, g in enumerate(_reference_graphs(cycles)):
            alg = make(g)
            for trials in (1, 5, 130):
                for batch in (1, 3, 64):
                    got = batched_trials(alg, g, trials, seed=seed, batch=batch)
                    want = reference_trials(alg, g, trials, seed, batch)
                    case = (g.n, trials, batch)
                    assert got.trials == want.trials == trials, case
                    assert np.array_equal(got.counts, want.counts), case

    @pytest.mark.parametrize("make, cycles", _CONFIGS)
    def test_union_cap_equals_reference(self, make, cycles, monkeypatch):
        monkeypatch.setattr(batched_module, "MAX_VERTICES", 100)
        g = random_tree(30, seed=3).graph
        alg = make(g)
        with use_profiler() as prof:
            got = batched_trials(alg, g, 10, seed=4, batch=64)
        assert prof.report()["phases"]["batched.sweep"]["calls"] == 4
        want = reference_trials(alg, g, 10, 4, 64)
        assert np.array_equal(got.counts, want.counts)
