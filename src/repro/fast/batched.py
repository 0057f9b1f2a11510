"""Trial-batched execution via disjoint-union vectorization.

A Monte-Carlo batch of ``C`` independent trials of a per-round vectorized
algorithm is *exactly* one run of that algorithm on the disjoint union of
``C`` copies of the graph: components never interact, and the per-round
numpy kernels amortize their fixed cost over ``C·n`` vertices instead of
``n`` (the guides' "vectorize the outer loop too" move).  The only
subtlety is that size-derived parameters (FAIRTREE's and the
Linial–Saks γ, Cole–Vishkin's id palette and reduction count, COLORMIS's
palette and arboricity cap) must come from the *base* graph, not the
union.  Each batchable engine pins them in its ``union_sweep(graph)``,
which resolves them from *graph* once and returns ``sweep(union, draws)
-> (membership, rounds)`` for any union of copies of *graph*.  Luby's
iteration cap is only a safety valve, so the union keeps its own.

:func:`union_counts` is the one union loop, and the draw source
(:mod:`repro.runtime.rng`) is what tells the two modes apart:

* :func:`batched_trials` (vectorized mode) draws each union from one
  generator, in unions of up to ``batch`` copies and
  :data:`~repro.fast.engine.MAX_VERTICES` vertices, built through a
  small memo;
* :func:`exact_counts` (exact mode) gives every copy its own trial's
  generator, so its counts equal the per-trial loop's bit for bit
  whatever the grouping; unions hold up to :data:`EXACT_VERTICES`
  vertices and are built per call.

Speedups are largest for small graphs and round-dominated algorithms
(~5-20×); see ``benchmarks/test_engine_speed.py``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Iterable, Sequence

import numpy as np

from ..analysis.fairness import JoinEstimate
from ..core.result import MISAlgorithm, MISResult
from ..graphs.graph import StaticGraph
from ..obs.profile import current_profiler, phase
from ..runtime.rng import Draws, SeedLike, TrialDraws, UnionDraws, generator_from
from .engine import MAX_VERTICES

__all__ = [
    "EXACT_VERTICES",
    "disjoint_power",
    "disjoint_power_cache_info",
    "disjoint_power_cache_clear",
    "union_counts",
    "batched_trials",
    "exact_counts",
]

#: Most vertices in one exact-mode union.  Unions near 2^13–2^15
#: vertices run fastest per trial, and each union's temporaries grow
#: with its size.
EXACT_VERTICES = 1 << 14


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


def _tile(graph: StaticGraph, copies: int) -> StaticGraph:
    """The disjoint union of ``copies`` copies of *graph*, unmemoized.

    One ``[lo | hi | lo]`` buffer holds the union's edges and both
    symmetric edge lists as views, so a union costs three arrays of its
    ``m`` endpoints instead of six.
    """
    if copies == 1:
        return graph
    n, m = graph.n, graph.m * copies
    shift = (np.arange(copies, dtype=np.int64) * n)[:, None]
    ends = np.empty((3, copies, graph.m), dtype=np.int64)
    np.add(graph.edges[:, 0], shift, out=ends[0])
    np.add(graph.edges[:, 1], shift, out=ends[1])
    ends[2] = ends[0]
    flat = ends.reshape(-1)
    union = StaticGraph(n=n * copies, edges=flat[: 2 * m].reshape(2, m).T)
    union.__dict__["edge_src"] = flat[: 2 * m]
    union.__dict__["edge_dst"] = flat[m:]
    return union


def disjoint_power(graph: StaticGraph, copies: int) -> StaticGraph:
    """The disjoint union of ``copies`` relabeled copies of *graph*.

    Copy ``c`` occupies vertices ``[c*n, (c+1)*n)`` and forward edges
    ``[c*m, (c+1)*m)``.  Results are memoized by
    ``(graph.content_hash(), copies)`` so repeated chunks of the same
    batch size reuse one union (and its cached CSR).
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
    union = _tile(graph, copies)
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


def union_counts(
    algorithm: MISAlgorithm,
    graph: StaticGraph,
    sources: Iterable[Draws],
    build: Callable[[StaticGraph, int], StaticGraph],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Join counts of one union sweep per draw source, and the rounds.

    Each source's union of ``source.copies`` copies comes from
    ``build(graph, copies)``.  Returns the counts folded onto *graph*'s
    vertices and the per-copy round arrays of an engine that reports
    them.  An algorithm built with ``validate=True`` has every union's
    membership checked.  Raises :class:`ValueError` for an algorithm
    without a ``union_sweep``.
    """
    union_sweep = getattr(algorithm, "union_sweep", None)
    if union_sweep is None:
        raise ValueError(
            f"no vectorized runner for algorithm {algorithm.name!r}"
        )
    sweep = union_sweep(graph)
    validate = getattr(algorithm, "validate", False)
    n = graph.n
    counts = np.zeros(n, dtype=np.int64)
    rounds: list[np.ndarray] = []
    for draws in sources:
        copies = draws.copies
        with phase("batched.union"):
            union = build(graph, copies)
        with phase("batched.sweep"):
            member, copy_rounds = sweep(union, draws)
        if validate:
            MISResult(membership=member).validate(union)
        with phase("batched.fold"):
            counts += _fold_counts(member, copies, n)
        if copy_rounds is not None:
            rounds.append(copy_rounds)
    return counts, rounds


def batched_trials(
    algorithm: MISAlgorithm,
    graph: StaticGraph,
    trials: int,
    seed: SeedLike = None,
    batch: int = 64,
) -> JoinEstimate:
    """Join counts of *algorithm* over *trials* runs on *graph*, batched.

    Each union of up to *batch* copies draws from one generator.  A
    union never grows past the fast engines'
    :data:`~repro.fast.engine.MAX_VERTICES`, so large graphs take fewer
    copies per union than *batch*.  Statistically equivalent to
    :func:`repro.analysis.montecarlo.run_trials` (different stream
    layout, same distribution).  Raises :class:`ValueError` for an
    algorithm without a ``union_sweep``.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    rng = generator_from(seed)
    fits = max(1, MAX_VERTICES // max(graph.n, 1))

    def sources() -> Iterable[Draws]:
        done = 0
        while done < trials:
            copies = min(batch, fits, trials - done)
            yield UnionDraws(rng, copies)
            done += copies

    counts, _ = union_counts(algorithm, graph, sources(), disjoint_power)
    return JoinEstimate(counts=counts, trials=trials)


def exact_counts(
    algorithm: MISAlgorithm,
    graph: StaticGraph,
    seeds: Sequence[np.random.SeedSequence],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Join counts over per-trial seeds, in unions whose copies draw from
    their own trials' generators; the counts and each copy's rounds.

    Copy ``c`` of a union draws exactly what ``algorithm.run(graph,
    default_rng(seeds[c]))`` would, so the counts equal the per-trial
    loop's bit for bit however the seeds are grouped.  A union holds up
    to :data:`EXACT_VERTICES` vertices (one copy for a larger graph)
    and never more copies than there are seeds.
    """
    per_union = max(1, min(EXACT_VERTICES // max(graph.n, 1), len(seeds)))
    sources = (
        TrialDraws([np.random.default_rng(s) for s in seeds[i : i + per_union]])
        for i in range(0, len(seeds), per_union)
    )
    return union_counts(algorithm, graph, sources, _tile)
