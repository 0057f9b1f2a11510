"""Trial-batched execution via disjoint-union vectorization.

A Monte-Carlo batch of ``C`` independent trials of a per-round vectorized
algorithm is *exactly* one run of that algorithm on the disjoint union of
``C`` copies of the graph: components never interact, every copy draws
its own randomness, and the per-round numpy kernels amortize their fixed
cost over ``C·n`` vertices instead of ``n`` (the guides' "vectorize the
outer loop too" move).  The only subtlety is that size-derived parameters
(FAIRTREE's γ, Luby's iteration cap) must be computed from the *base*
graph's ``n``, not the union's — the runners below pin them explicitly.

Speedups are largest for small graphs and round-dominated algorithms
(~5-20×); see ``benchmarks/test_engine_speed.py``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

import numpy as np

from ..analysis.fairness import JoinEstimate
from ..graphs.graph import StaticGraph
from ..algorithms.fair_bipart import default_block_gamma
from ..algorithms.fair_tree import default_gamma
from ..obs.profile import current_profiler, phase
from ..runtime.rng import SeedLike, generator_from
from .engine import MAX_VERTICES
from .fair_tree import fair_tree_run
from .luby import luby_sweep

__all__ = [
    "disjoint_power",
    "disjoint_power_cache_info",
    "disjoint_power_cache_clear",
    "batched_luby_trials",
    "batched_fair_tree_trials",
    "batched_fair_rooted_trials",
    "batched_fair_bipart_trials",
    "batched_color_mis_trials",
    "vector_runner_for",
]


# Memo for built unions, keyed by (base content_hash, copies).  The
# service dispatches many same-sized chunks of the same graph, so without
# this every chunk re-materializes an identical (copies*m, 2) edge array.
# Unions are immutable, so sharing one object across chunks is safe; the
# cache is tiny (a few entries) because only a couple of (graph, batch)
# shapes are live at once.
_UNION_CACHE: OrderedDict[tuple[str, int], StaticGraph] = OrderedDict()
_UNION_CACHE_LOCK = threading.Lock()
_UNION_CACHE_CAP = 4
_union_cache_stats = {"hits": 0, "misses": 0}


def disjoint_power(graph: StaticGraph, copies: int) -> StaticGraph:
    """The disjoint union of ``copies`` relabeled copies of *graph*.

    Copy ``c`` occupies vertices ``[c*n, (c+1)*n)``.  Results are
    memoized by ``(graph.content_hash(), copies)`` so repeated chunks of
    the same batch size reuse one union (and its cached CSR).
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if copies == 1:
        return graph
    key = (graph.content_hash(), copies)
    prof = current_profiler()
    with _UNION_CACHE_LOCK:
        union = _UNION_CACHE.get(key)
        if union is not None:
            _UNION_CACHE.move_to_end(key)
            _union_cache_stats["hits"] += 1
            if prof is not None:
                prof.count("batched.union_cache_hit")
            return union
    n, e = graph.n, graph.edges
    offsets = (np.arange(copies, dtype=np.int64) * n)[:, None, None]
    tiled = (e[None, :, :] + offsets).reshape(-1, 2)
    union = StaticGraph(n=n * copies, edges=tiled)
    with _UNION_CACHE_LOCK:
        _union_cache_stats["misses"] += 1
        _UNION_CACHE[key] = union
        _UNION_CACHE.move_to_end(key)
        while len(_UNION_CACHE) > _UNION_CACHE_CAP:
            _UNION_CACHE.popitem(last=False)
    if prof is not None:
        prof.count("batched.union_cache_miss")
    return union


def disjoint_power_cache_info() -> dict[str, int]:
    """Memo statistics: ``{"hits", "misses", "size", "cap"}``."""
    with _UNION_CACHE_LOCK:
        return {
            "hits": _union_cache_stats["hits"],
            "misses": _union_cache_stats["misses"],
            "size": len(_UNION_CACHE),
            "cap": _UNION_CACHE_CAP,
        }


def disjoint_power_cache_clear() -> None:
    """Drop all memoized unions and reset statistics."""
    with _UNION_CACHE_LOCK:
        _UNION_CACHE.clear()
        _union_cache_stats["hits"] = 0
        _union_cache_stats["misses"] = 0


def _fold_counts(member: np.ndarray, copies: int, n: int) -> np.ndarray:
    """Sum per-copy membership into per-base-vertex join counts."""
    return member.reshape(copies, n).sum(axis=0).astype(np.int64)


def _batched_counts(
    graph: StaticGraph,
    trials: int,
    seed: SeedLike,
    batch: int,
    sweep: Callable[[StaticGraph, np.random.Generator], np.ndarray],
) -> JoinEstimate:
    """Join counts over *trials* runs, up to *batch* copies per union.

    ``sweep(union, rng)`` runs the algorithm once on a union of copies of
    *graph* and returns its membership mask.  A union never
    grows past the fast engines' :data:`~repro.fast.engine.MAX_VERTICES`,
    so large graphs take fewer copies per union than *batch*.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    rng = generator_from(seed)
    n = graph.n
    fits = max(1, MAX_VERTICES // max(n, 1))
    counts = np.zeros(n, dtype=np.int64)
    done = 0
    while done < trials:
        copies = min(batch, fits, trials - done)
        with phase("batched.union"):
            union = disjoint_power(graph, copies)
        with phase("batched.sweep"):
            member = sweep(union, rng)
        with phase("batched.fold"):
            counts += _fold_counts(member, copies, n)
        done += copies
    return JoinEstimate(counts=counts, trials=trials)


def batched_luby_trials(
    graph: StaticGraph,
    trials: int,
    seed: SeedLike = None,
    batch: int = 64,
) -> JoinEstimate:
    """Luby (priority variant) join counts over *trials* runs.

    Statistically equivalent to :func:`repro.analysis.montecarlo.run_trials`
    with :class:`~repro.fast.luby.FastLuby` (different stream layout, same
    distribution), several times faster on small/medium graphs.
    """
    return _batched_counts(
        graph, trials, seed, batch, lambda union, rng: luby_sweep(union, rng)[0]
    )


def batched_fair_tree_trials(
    graph: StaticGraph,
    trials: int,
    seed: SeedLike = None,
    batch: int = 64,
    gamma_c: float = 3.0,
    gamma: int | None = None,
) -> JoinEstimate:
    """FAIRTREE join counts over *trials* runs (batched).

    ``γ`` is pinned to the *base* graph's size so the batched algorithm is
    parameter-identical to the per-trial one.
    """
    g_eff = gamma if gamma is not None else default_gamma(graph.n, gamma_c)
    return _batched_counts(
        graph,
        trials,
        seed,
        batch,
        lambda union, rng: fair_tree_run(union, rng, gamma=g_eff)[0],
    )


def batched_fair_rooted_trials(
    graph: StaticGraph,
    trials: int,
    seed: SeedLike = None,
    batch: int = 64,
    parent: np.ndarray | None = None,
) -> JoinEstimate:
    """FAIRROOTED join counts over *trials* runs (batched).

    *parent* is the base graph's parent array (BFS rooting from vertex 0
    when omitted, matching :class:`~repro.fast.fair_rooted.FastFairRooted`).
    Copies get the same rooting shifted by their offset, and the
    Cole–Vishkin stage is pinned to the base graph's size (initial id
    palette and reduction count) so each copy runs exactly one trial.
    """
    from ..graphs.graph import RootedTree
    from .fair_rooted import fair_rooted_run

    n = graph.n
    if parent is None:
        parent = RootedTree.from_graph(graph).parent
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

    return _batched_counts(graph, trials, seed, batch, sweep)


def batched_fair_bipart_trials(
    graph: StaticGraph,
    trials: int,
    seed: SeedLike = None,
    batch: int = 64,
    gamma_c: float = 2.0,
    gamma: int | None = None,
    p: float = 0.5,
) -> JoinEstimate:
    """FAIRBIPART join counts over *trials* runs (batched).

    ``γ`` (the Linial–Saks radius scale) is pinned to the *base* graph's
    size, exactly as :func:`batched_fair_tree_trials` pins FAIRTREE's γ.
    """
    from .blocks import fair_bipart_run

    g_eff = gamma if gamma is not None else default_block_gamma(graph.n, gamma_c)
    return _batched_counts(
        graph,
        trials,
        seed,
        batch,
        lambda union, rng: fair_bipart_run(union, rng, g_eff, p=p)[0],
    )


def batched_color_mis_trials(
    graph: StaticGraph,
    trials: int,
    seed: SeedLike = None,
    batch: int = 64,
    k: int | None = None,
    coloring: str = "greedy",
    gamma_c: float = 2.0,
    gamma: int | None = None,
    p: float = 0.5,
) -> JoinEstimate:
    """COLORMIS join counts over *trials* runs (batched).

    Every size-derived parameter — γ, the palette size ``k``, the
    coloring trial budget, and (for ``coloring="arboricity"``) the
    H-partition cap — is resolved from the *base* graph and held fixed on
    the union; the arboricity bound in particular would differ on the
    union (its edge density changes), so pinning is load-bearing, not
    cosmetic.
    """
    from .blocks import FastColorMIS, color_mis_run

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

    return _batched_counts(graph, trials, seed, batch, sweep)


# --------------------------------------------------------------------- #
# vector-runner registry (consumed by the estimation service)
# --------------------------------------------------------------------- #
def _luby_vector_runner(algorithm, graph, trials, seed):
    return batched_luby_trials(graph, trials, seed=seed).counts


def _fair_tree_vector_runner(algorithm, graph, trials, seed):
    return batched_fair_tree_trials(
        graph,
        trials,
        seed=seed,
        gamma_c=algorithm.gamma_c,
        gamma=algorithm.gamma,
    ).counts


def _fair_rooted_vector_runner(algorithm, graph, trials, seed):
    return batched_fair_rooted_trials(
        graph,
        trials,
        seed=seed,
        parent=algorithm._parents(graph),  # noqa: SLF001 - same package
    ).counts


def _fair_bipart_vector_runner(algorithm, graph, trials, seed):
    return batched_fair_bipart_trials(
        graph,
        trials,
        seed=seed,
        gamma_c=algorithm.gamma_c,
        gamma=algorithm.gamma,
        p=algorithm.p,
    ).counts


def _color_mis_vector_runner(algorithm, graph, trials, seed):
    return batched_color_mis_trials(
        graph,
        trials,
        seed=seed,
        k=algorithm.k,
        coloring=algorithm.coloring,
        gamma_c=algorithm.gamma_c,
        gamma=algorithm.gamma,
        p=algorithm.p,
    ).counts


def vector_runner_for(algorithm):
    """Batched (disjoint-union) runner for *algorithm*, or ``None``.

    A runner maps ``(algorithm, graph, trials, seed)`` to an int64 join-
    count vector that is statistically equivalent to per-trial execution
    but uses a different random-stream layout.  Only algorithms whose
    batched kernel is parameter-identical to the per-trial one qualify —
    all five paper algorithms do in their fast-engine form (size-derived
    parameters pinned to the base graph); the service falls back to exact
    per-trial chunks for anything else.
    """
    from .blocks import FastColorMIS, FastFairBipart
    from .fair_rooted import FastFairRooted
    from .fair_tree import FastFairTree
    from .luby import FastLuby

    if isinstance(algorithm, FastLuby) and algorithm.variant == "priority":
        return _luby_vector_runner
    if isinstance(algorithm, FastFairTree):
        return _fair_tree_vector_runner
    if isinstance(algorithm, FastFairRooted):
        return _fair_rooted_vector_runner
    if isinstance(algorithm, FastFairBipart):
        return _fair_bipart_vector_runner
    if isinstance(algorithm, FastColorMIS):
        return _color_mis_vector_runner
    return None
