"""Exact mode on disjoint unions whose copies draw from their own trials'
generators.

``chunk_counts`` runs an algorithm that has a ``union_sweep`` as unions of
up to :data:`~repro.fast.batched.EXACT_VERTICES` vertices, one per-trial
generator per copy (:class:`~repro.runtime.rng.TrialDraws`).  Its counts
must equal the per-trial loop's bit for bit, and vectorized counts must
not move either.

The digest tables pin both.  They were computed at commit ``8a30aab``,
before exact chunks ran as unions, from the matrix below: for each
configuration and graph, ``EXACT[(config, graph)]`` is :func:`digest` of
``chunk_counts(alg, g, spawn_trial_seeds(seed, k))`` for ``k`` in
``SIZES``, in that order, with ``seed`` the graph's in ``TREES`` or
``GRID``.  ``VECTOR`` is the same for ``vector_chunk_counts(alg, g,
SeedSequence(seed), k)``; it has no ``luby_degree`` rows, as that
variant ran no vectorized chunks then.
"""

import hashlib

import numpy as np
import pytest

import repro.analysis.montecarlo as montecarlo
import repro.fast.batched as batched_module
from repro.analysis.montecarlo import chunk_counts, vector_chunk_counts
from repro.core.result import InvalidMISError
from repro.experiments.datasets import table1_trees
from repro.fast.batched import disjoint_power
from repro.fast.blocks import FastColorMIS, FastFairBipart
from repro.fast.fair_rooted import FastFairRooted
from repro.fast.fair_tree import FastFairTree
from repro.fast.luby import FastLuby
from repro.graphs.generators import (
    complete_tree,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
)
from repro.graphs.graph import RootedTree, StaticGraph
from repro.obs.profile import use_profiler
from repro.runtime.rng import TrialDraws, spawn_trial_seeds

SIZES = (1, 5, 64, 130)


def _forest() -> StaticGraph:
    """Five trees side by side, one of them a lone vertex."""
    parts = [
        path_graph(6),
        star_graph(5),
        random_tree(20, seed=4).graph,
        path_graph(1),
        complete_tree(2, 2).graph,
    ]
    edges, offset = [], 0
    for part in parts:
        edges.append(part.edges + offset)
        offset += part.n
    return StaticGraph.from_edges(offset, np.concatenate(edges))


#: name -> (graph, seed of its trials)
TREES = {
    "tree30": (random_tree(30, seed=1).graph, 1),
    "tree200": (random_tree(200, seed=2).graph, 2),
    "tree1000": (random_tree(1000, seed=3).graph, 3),
    "path": (path_graph(17), 4),
    "star": (star_graph(12), 5),
    "binary": (complete_tree(2, 5).graph, 6),
    "forest": (_forest(), 7),
}
GRID = {"grid": (grid_graph(4, 5), 8)}


def _rooted_mid(g: StaticGraph) -> FastFairRooted:
    return FastFairRooted(tree=RootedTree.from_graph(g, root=g.n // 2))


#: name -> (make(graph) -> algorithm, whether it accepts cycles)
CONFIGS = {
    "luby": (lambda g: FastLuby(), True),
    "luby_degree": (lambda g: FastLuby(variant="degree"), True),
    "fair_tree": (lambda g: FastFairTree(), False),
    "fair_tree_g2": (lambda g: FastFairTree(gamma=2), False),
    "fair_tree_g4": (lambda g: FastFairTree(gamma=4), False),
    "fair_rooted": (lambda g: FastFairRooted(), False),
    "fair_rooted_mid": (_rooted_mid, False),
    "fair_bipart": (lambda g: FastFairBipart(), True),
    "fair_bipart_g3_p04": (lambda g: FastFairBipart(gamma=3, p=0.4), True),
    "color_mis": (lambda g: FastColorMIS(), True),
    "color_mis_arb": (lambda g: FastColorMIS(coloring="arboricity"), True),
    "color_mis_k7": (lambda g: FastColorMIS(k=7), True),
}


def graphs(cycles: bool) -> dict[str, tuple[StaticGraph, int]]:
    return {**TREES, **GRID} if cycles else TREES


def digest(counts) -> str:
    """First 16 hex digits of the SHA-1 over int64 count vectors."""
    sha = hashlib.sha1()
    for c in counts:
        sha.update(np.asarray(c, dtype=np.int64).tobytes())
    return sha.hexdigest()[:16]


#: Computed at 8a30aab (see the module docstring).
EXACT = {
    ("luby", "tree30"): "b7cf80620bc4d9ba",
    ("luby", "tree200"): "9776cc5aea669514",
    ("luby", "tree1000"): "e19b940b34e856fc",
    ("luby", "path"): "108b9d33f46a2c73",
    ("luby", "star"): "55ce26d6132495ae",
    ("luby", "binary"): "555f80272173cfb3",
    ("luby", "forest"): "be701f15c86db624",
    ("luby", "grid"): "6d6cdebe841d3d15",
    ("luby_degree", "tree30"): "7906ca63d86dd00d",
    ("luby_degree", "tree200"): "5a1b28f6d62e4cb5",
    ("luby_degree", "tree1000"): "eec885ab1587109a",
    ("luby_degree", "path"): "7a82961a07e1d341",
    ("luby_degree", "star"): "c1c8aa8c0c891d1f",
    ("luby_degree", "binary"): "bc41c8f116139174",
    ("luby_degree", "forest"): "b094d80dfae68a61",
    ("luby_degree", "grid"): "69ab9819e55759ba",
    ("fair_tree", "tree30"): "db4ebcc7990d6edc",
    ("fair_tree", "tree200"): "8c4b714827b6551b",
    ("fair_tree", "tree1000"): "60505b6b6b5ac978",
    ("fair_tree", "path"): "61a7218e1e81bd5c",
    ("fair_tree", "star"): "15611de61dcf0334",
    ("fair_tree", "binary"): "22576513f33b3149",
    ("fair_tree", "forest"): "c8fde8bba43320a8",
    ("fair_tree_g2", "tree30"): "2cd3a6097ad645fb",
    ("fair_tree_g2", "tree200"): "8307d3519339ee28",
    ("fair_tree_g2", "tree1000"): "995b45a3f9e8234a",
    ("fair_tree_g2", "path"): "09044b2e8875e82f",
    ("fair_tree_g2", "star"): "15611de61dcf0334",
    ("fair_tree_g2", "binary"): "48bd9239454a3629",
    ("fair_tree_g2", "forest"): "2d1f3dc716a91545",
    ("fair_tree_g4", "tree30"): "df87e0487bdffc15",
    ("fair_tree_g4", "tree200"): "ac432ea3d30040b7",
    ("fair_tree_g4", "tree1000"): "59ad97b0fd55adfe",
    ("fair_tree_g4", "path"): "c91e36e4f8fa80d9",
    ("fair_tree_g4", "star"): "15611de61dcf0334",
    ("fair_tree_g4", "binary"): "683dcc89d380af8c",
    ("fair_tree_g4", "forest"): "9139e78a2d9baf3d",
    ("fair_rooted", "tree30"): "de9eaff15fd5a5dc",
    ("fair_rooted", "tree200"): "c512cfc31dd66736",
    ("fair_rooted", "tree1000"): "028218375b82ac1c",
    ("fair_rooted", "path"): "f30dc6e9516ab148",
    ("fair_rooted", "star"): "d4df889d113e636d",
    ("fair_rooted", "binary"): "1f589561e42acf97",
    ("fair_rooted", "forest"): "9f53bd55b34f9630",
    ("fair_rooted_mid", "tree30"): "dbd979bac0608810",
    ("fair_rooted_mid", "tree200"): "e4420339c554f49c",
    ("fair_rooted_mid", "tree1000"): "308f68d66c53dda2",
    ("fair_rooted_mid", "path"): "c53762eed41ee93a",
    ("fair_rooted_mid", "star"): "856159291a76b06e",
    ("fair_rooted_mid", "binary"): "77663208e4264ab4",
    ("fair_rooted_mid", "forest"): "38c5447152e016bd",
    ("fair_bipart", "tree30"): "4d28b5e6c2378db2",
    ("fair_bipart", "tree200"): "ad2787c3b07e8a61",
    ("fair_bipart", "tree1000"): "6130283cbe71ec49",
    ("fair_bipart", "path"): "5ed75ae8c2c53eb3",
    ("fair_bipart", "star"): "9a3a56141e36d146",
    ("fair_bipart", "binary"): "49cee7617b2fac28",
    ("fair_bipart", "forest"): "274f5edbd22f916b",
    ("fair_bipart", "grid"): "0366a92f7f3bde73",
    ("fair_bipart_g3_p04", "tree30"): "0e793fe6d26dd7ac",
    ("fair_bipart_g3_p04", "tree200"): "950e1ccf649f7798",
    ("fair_bipart_g3_p04", "tree1000"): "20afdc7a7d781e04",
    ("fair_bipart_g3_p04", "path"): "1695415461a7f8d4",
    ("fair_bipart_g3_p04", "star"): "778f7c3329b69d98",
    ("fair_bipart_g3_p04", "binary"): "5090d5867306d3f3",
    ("fair_bipart_g3_p04", "forest"): "0fe1b5b88ff5c095",
    ("fair_bipart_g3_p04", "grid"): "5a7c5f21fcf66b98",
    ("color_mis", "tree30"): "126b06129223d54b",
    ("color_mis", "tree200"): "0977c799577624ab",
    ("color_mis", "tree1000"): "49e0c4f731b18fab",
    ("color_mis", "path"): "0c4835d37a62416e",
    ("color_mis", "star"): "48a02e0f9646f42c",
    ("color_mis", "binary"): "b86a8040fc9c3b57",
    ("color_mis", "forest"): "01fde70612e0bed7",
    ("color_mis", "grid"): "9c4e1098e6548b69",
    ("color_mis_arb", "tree30"): "a2c89188ec900d3b",
    ("color_mis_arb", "tree200"): "72f34322a1fe5bea",
    ("color_mis_arb", "tree1000"): "5f9d1082ad640735",
    ("color_mis_arb", "path"): "3e05d562011b9cb6",
    ("color_mis_arb", "star"): "7a42dd7f3622e1a1",
    ("color_mis_arb", "binary"): "a21b19c15b9f74a0",
    ("color_mis_arb", "forest"): "53a7440a4746b6b6",
    ("color_mis_arb", "grid"): "007c037326c9681d",
    ("color_mis_k7", "tree30"): "cdca7bb17f204a90",
    ("color_mis_k7", "tree200"): "c19f47cdc652d92e",
    ("color_mis_k7", "tree1000"): "ef36e9093ae611f8",
    ("color_mis_k7", "path"): "7a2ba81790682181",
    ("color_mis_k7", "star"): "6d32e4baf95386d3",
    ("color_mis_k7", "binary"): "b6c9d8a8efc00fe0",
    ("color_mis_k7", "forest"): "72df1f0e42971871",
    ("color_mis_k7", "grid"): "5e4bbde480e37247",
}
VECTOR = {
    ("luby", "tree30"): "278025631d5c7d12",
    ("luby", "tree200"): "97cc2327f503facd",
    ("luby", "tree1000"): "28c596a20b74179c",
    ("luby", "path"): "a474c83f9543f70c",
    ("luby", "star"): "bfeaa50ad76ece00",
    ("luby", "binary"): "6f8266a54cd21d67",
    ("luby", "forest"): "1efff3b78afcbac9",
    ("luby", "grid"): "8a4768f9e700ff31",
    ("fair_tree", "tree30"): "8fae075a2eb3e93e",
    ("fair_tree", "tree200"): "860f09e4e55efd0d",
    ("fair_tree", "tree1000"): "771cf7caf6a35148",
    ("fair_tree", "path"): "e420e92bbec561fe",
    ("fair_tree", "star"): "714c0ae688ebfe83",
    ("fair_tree", "binary"): "576619d47ad3c232",
    ("fair_tree", "forest"): "11c14c27e9cd091b",
    ("fair_tree_g2", "tree30"): "29833f59eacc88da",
    ("fair_tree_g2", "tree200"): "a302c17961facc83",
    ("fair_tree_g2", "tree1000"): "0ac2be138255450c",
    ("fair_tree_g2", "path"): "c23e14352e95c8f8",
    ("fair_tree_g2", "star"): "714c0ae688ebfe83",
    ("fair_tree_g2", "binary"): "5ac9eca11d918011",
    ("fair_tree_g2", "forest"): "ea6d0e60d2646463",
    ("fair_tree_g4", "tree30"): "4d5d4bf14909cec6",
    ("fair_tree_g4", "tree200"): "ddb65cd0abc02d8b",
    ("fair_tree_g4", "tree1000"): "c54c9c214ea4104c",
    ("fair_tree_g4", "path"): "5b9cd5b42a7a5b84",
    ("fair_tree_g4", "star"): "714c0ae688ebfe83",
    ("fair_tree_g4", "binary"): "7fd8dda5bd3f4474",
    ("fair_tree_g4", "forest"): "8dd7d8a824a27b6f",
    ("fair_rooted", "tree30"): "c51633cb601a0583",
    ("fair_rooted", "tree200"): "be47504848065011",
    ("fair_rooted", "tree1000"): "4c863d548b261516",
    ("fair_rooted", "path"): "a4c048d122e0c48d",
    ("fair_rooted", "star"): "74976a372af0e29f",
    ("fair_rooted", "binary"): "3ece7a798fe490a1",
    ("fair_rooted", "forest"): "0429139775413b4e",
    ("fair_rooted_mid", "tree30"): "55c65167e83ede13",
    ("fair_rooted_mid", "tree200"): "db6462032dfd9a13",
    ("fair_rooted_mid", "tree1000"): "cef9cc15b2effd37",
    ("fair_rooted_mid", "path"): "ef058a24436736d9",
    ("fair_rooted_mid", "star"): "1830203386c63e6c",
    ("fair_rooted_mid", "binary"): "e3e2925ed5cee8cd",
    ("fair_rooted_mid", "forest"): "27cec0ee20d74689",
    ("fair_bipart", "tree30"): "47bf0d0b7ffc14cf",
    ("fair_bipart", "tree200"): "46631f37e3aeb5c9",
    ("fair_bipart", "tree1000"): "7f25230fe83dc8a6",
    ("fair_bipart", "path"): "285421a6fd496a2e",
    ("fair_bipart", "star"): "c32577b9a0f2a1b2",
    ("fair_bipart", "binary"): "49bc856aa810799d",
    ("fair_bipart", "forest"): "d700ca744382683b",
    ("fair_bipart", "grid"): "95698a0478ba1b8c",
    ("fair_bipart_g3_p04", "tree30"): "fcd763d2b4e8e448",
    ("fair_bipart_g3_p04", "tree200"): "8d6645b71b7532d9",
    ("fair_bipart_g3_p04", "tree1000"): "5d71726cd518e055",
    ("fair_bipart_g3_p04", "path"): "8af79667608c5ffa",
    ("fair_bipart_g3_p04", "star"): "b10bd13ff73d0c5d",
    ("fair_bipart_g3_p04", "binary"): "ab5933ee8da4f5b8",
    ("fair_bipart_g3_p04", "forest"): "9e8a0d133d38ee92",
    ("fair_bipart_g3_p04", "grid"): "84a7d8eed3700433",
    ("color_mis", "tree30"): "971339724be90343",
    ("color_mis", "tree200"): "5c2a5e1c92fd438f",
    ("color_mis", "tree1000"): "a0ec98cbf733e2fb",
    ("color_mis", "path"): "42d811769481e62e",
    ("color_mis", "star"): "879a7968c422942e",
    ("color_mis", "binary"): "dc066b13dfa9ca2f",
    ("color_mis", "forest"): "4274b5380c9c93b1",
    ("color_mis", "grid"): "965e5c90c3a0aebe",
    ("color_mis_arb", "tree30"): "c6d21a03578fe1dd",
    ("color_mis_arb", "tree200"): "39c8aaf1f633fa45",
    ("color_mis_arb", "tree1000"): "21f8f7ea761aade1",
    ("color_mis_arb", "path"): "c8e53898341bf88e",
    ("color_mis_arb", "star"): "dcee2baa4fb52dc8",
    ("color_mis_arb", "binary"): "68ca931eb4a70126",
    ("color_mis_arb", "forest"): "baedaebb466314eb",
    ("color_mis_arb", "grid"): "6da5e87f5cc3595d",
    ("color_mis_k7", "tree30"): "d591dde96030fa11",
    ("color_mis_k7", "tree200"): "2622acdaf75cc199",
    ("color_mis_k7", "tree1000"): "9c979e54329914eb",
    ("color_mis_k7", "path"): "905ed35d51d4ff95",
    ("color_mis_k7", "star"): "0e5996a210d3cf76",
    ("color_mis_k7", "binary"): "c46e9ed47a75b3ce",
    ("color_mis_k7", "forest"): "37ebb453bb0b9a7d",
    ("color_mis_k7", "grid"): "9383f235800b6a76",
}


_CASES = [
    pytest.param(config, gname, id=f"{config}-{gname}")
    for config, (_, cycles) in CONFIGS.items()
    for gname in graphs(cycles)
]


class TestParentDigests:
    @pytest.mark.parametrize("config, gname", _CASES)
    def test_exact_counts(self, config, gname):
        make, _ = CONFIGS[config]
        g, seed = graphs(True)[gname]
        got = digest(
            chunk_counts(make(g), g, spawn_trial_seeds(seed, k)) for k in SIZES
        )
        assert got == EXACT[(config, gname)]

    @pytest.mark.parametrize(
        "config, gname", [c for c in _CASES if c.values[0] != "luby_degree"]
    )
    def test_vectorized_counts(self, config, gname):
        make, _ = CONFIGS[config]
        g, seed = graphs(True)[gname]
        root = np.random.SeedSequence(seed)
        got = digest(vector_chunk_counts(make(g), g, root, k) for k in SIZES)
        assert got == VECTOR[(config, gname)]


def _sweeps(algorithm, g, seeds) -> tuple[np.ndarray, int]:
    """Counts of one exact chunk and the unions it ran."""
    with use_profiler() as prof:
        counts = chunk_counts(algorithm, g, seeds)
    return counts, prof.report()["phases"]["batched.sweep"]["calls"]


class TestGrouping:
    """Exact counts do not depend on how many copies share a union."""

    @pytest.mark.parametrize("config", list(CONFIGS))
    def test_union_cap_does_not_matter(self, config, monkeypatch):
        make, cycles = CONFIGS[config]
        names = ["tree30", "forest"] + (["grid"] if cycles else [])
        for name in names:
            g, seed = graphs(cycles)[name]
            alg = make(g)
            seeds = spawn_trial_seeds(seed, 20)
            default, unions = _sweeps(alg, g, seeds)
            assert unions == 1, name  # all 20 copies fit in one union
            for per_union, want_unions in ((1, 20), (3, 7)):
                monkeypatch.setattr(
                    batched_module, "EXACT_VERTICES", per_union * g.n
                )
                counts, unions = _sweeps(alg, g, seeds)
                assert unions == want_unions, (name, per_union)
                assert np.array_equal(counts, default), (name, per_union)
            monkeypatch.undo()

    def test_large_graph_runs_one_copy_per_union(self, monkeypatch):
        monkeypatch.setattr(batched_module, "EXACT_VERTICES", 100)
        g = random_tree(200, seed=2).graph
        counts, unions = _sweeps(FastLuby(), g, spawn_trial_seeds(0, 4))
        assert unions == 4
        assert counts.sum() > 0


_STREAMS = {
    "luby": FastLuby(),
    "luby_degree": FastLuby(variant="degree"),
    "fair_tree_g2": FastFairTree(gamma=2),
    "color_mis": FastColorMIS(),
    "color_mis_arb": FastColorMIS(coloring="arboricity"),
}


class TestStreams:
    """After a union sweep every copy's generator stands where its lone
    run leaves it: a copy that is done draws nothing more."""

    @pytest.mark.parametrize("config", list(_STREAMS))
    def test_copies_end_in_their_lone_state(self, config):
        alg = _STREAMS[config]
        for g in (random_tree(200, seed=2).graph, _forest()):
            seeds = spawn_trial_seeds(11, 12)
            rngs = [np.random.default_rng(s) for s in seeds]
            member, _ = alg.union_sweep(g)(disjoint_power(g, 12), TrialDraws(rngs))
            for c, seed in enumerate(seeds):
                lone = np.random.default_rng(seed)
                want = alg.run(g, lone).membership
                assert np.array_equal(member[c * g.n : (c + 1) * g.n], want), c
                assert rngs[c].bit_generator.state == lone.bit_generator.state, c


class _Recorder:
    def __init__(self) -> None:
        self.seen: list[int] = []

    def observe_many(self, values) -> None:
        self.seen.extend(values)


class TestRounds:
    @pytest.mark.parametrize("variant", ["priority", "degree"])
    def test_trial_rounds_are_lone_iterations(self, variant, monkeypatch):
        recorder = _Recorder()
        monkeypatch.setattr(
            montecarlo, "trial_rounds_histogram", lambda name: recorder
        )
        g = random_tree(200, seed=2).graph
        seeds = spawn_trial_seeds(3, 30)
        chunk_counts(FastLuby(variant=variant), g, seeds)
        lone = [
            FastLuby(variant=variant).run(g, np.random.default_rng(s)).info[
                "iterations"
            ]
            for s in seeds
        ]
        assert recorder.seen == lone
        assert len(set(lone)) > 1  # copies finish at different iterations


class _NonMaximal:
    """A batchable engine whose sweep joins nobody."""

    name = "non_maximal_fast"

    def __init__(self, validate: bool) -> None:
        self.validate = validate

    def union_sweep(self, graph):
        return lambda union, draws: (np.zeros(union.n, dtype=bool), None)


class TestValidation:
    def test_invalid_union_raises(self):
        g = path_graph(5)
        with pytest.raises(InvalidMISError):
            chunk_counts(_NonMaximal(validate=True), g, spawn_trial_seeds(0, 8))

    def test_unvalidated_union_counts(self):
        g = path_graph(5)
        counts = chunk_counts(_NonMaximal(validate=False), g, spawn_trial_seeds(0, 8))
        assert not counts.any()


def _exact_chunk(alg, g) -> None:
    chunk_counts(alg, g, spawn_trial_seeds(7, 60))


def _vector_chunk(alg, g) -> None:
    vector_chunk_counts(alg, g, np.random.SeedSequence(7), 60)


class TestForestPathOnUnions:
    @pytest.mark.parametrize(
        "chunk, share",
        [(_exact_chunk, 0.95), (_vector_chunk, 0.8)],
        ids=["chunk_counts", "vector_chunk_counts"],
    )
    def test_table1_unions_take_the_forest_path(self, chunk, share):
        """Unions of the paper's six trees, exact or vectorized, read
        their CFB calls off the tiled rooting: one call per union and
        stage, flooding only when some copy cannot show that its flood
        settles.  A lone call fails to show it in under 0.1% of calls
        (``test_fast_cfb.py``), so a union of 60 copies floods in under
        6% of calls; the 18 vectorized calls (one 60-copy union per tree)
        then expect about one flood, and the bound allows three."""
        forest = flood = unions = 0
        for tree in table1_trees():
            with use_profiler() as prof:
                chunk(FastFairTree(), tree.graph)
            report = prof.report()
            forest += report["counts"].get("cfb.forest_calls", 0)
            flood += report["phases"].get("cfb.election", {}).get("calls", 0)
            unions += report["phases"]["batched.sweep"]["calls"]
        assert forest + flood == 3 * unions
        assert forest / (forest + flood) >= share

    def test_one_failing_copy_floods_the_union(self):
        """At γ = 2 most copies cannot show the flood settles, so whole
        unions flood; the counts still match (see the digests)."""
        g = random_tree(200, seed=2).graph
        with use_profiler() as prof:
            chunk_counts(FastFairTree(gamma=2), g, spawn_trial_seeds(1, 40))
        report = prof.report()
        assert report["phases"]["cfb.election"]["calls"] > 0
