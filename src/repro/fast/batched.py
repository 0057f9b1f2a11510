"""Trial-batched execution via disjoint-union vectorization.

A Monte-Carlo batch of ``C`` independent trials of a per-round vectorized
algorithm is *exactly* one run of that algorithm on the disjoint union of
``C`` copies of the graph: components never interact, every copy draws
its own randomness, and the per-round numpy kernels amortize their fixed
cost over ``C·n`` vertices instead of ``n`` (the guides' "vectorize the
outer loop too" move).  The only subtlety is that size-derived parameters
(FAIRTREE's and the Linial–Saks γ, Cole–Vishkin's id palette and
reduction count, COLORMIS's palette and arboricity cap) must come from
the *base* graph, not the union.  Each batchable engine pins them in its
``union_sweep(graph)``, which resolves them from *graph* once and returns
``sweep(union, rng) -> membership`` for any union of copies of *graph*;
:func:`batched_trials` is the one runner over it.  Luby's iteration cap
is only a safety valve, so the union keeps its own.

Speedups are largest for small graphs and round-dominated algorithms
(~5-20×); see ``benchmarks/test_engine_speed.py``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..analysis.fairness import JoinEstimate
from ..core.result import MISAlgorithm
from ..graphs.graph import StaticGraph
from ..obs.profile import current_profiler, phase
from ..runtime.rng import SeedLike, generator_from
from .engine import MAX_VERTICES

__all__ = [
    "disjoint_power",
    "disjoint_power_cache_info",
    "disjoint_power_cache_clear",
    "batched_trials",
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


def batched_trials(
    algorithm: MISAlgorithm,
    graph: StaticGraph,
    trials: int,
    seed: SeedLike = None,
    batch: int = 64,
) -> JoinEstimate:
    """Join counts of *algorithm* over *trials* runs on *graph*, batched.

    ``algorithm.union_sweep(graph)`` resolves the engine's size-derived
    parameters from *graph* once; each call of the sweep it returns runs
    up to *batch* trials as one run on a disjoint union of copies.  A
    union never grows past the fast engines'
    :data:`~repro.fast.engine.MAX_VERTICES`, so large graphs take fewer
    copies per union than *batch*.  Statistically equivalent to
    :func:`repro.analysis.montecarlo.run_trials` (different stream
    layout, same distribution).  Raises :class:`ValueError` for an
    algorithm without a ``union_sweep``.
    """
    union_sweep = getattr(algorithm, "union_sweep", None)
    if union_sweep is None:
        raise ValueError(
            f"no vectorized runner for algorithm {algorithm.name!r}"
        )
    sweep = union_sweep(graph)
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
