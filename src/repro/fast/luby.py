"""Vectorized Luby engines — one ``O(m)`` numpy kernel per round.

Distributionally identical to the faithful node-process variants in
:mod:`repro.algorithms.luby` (each iteration the local maxima of fresh
random priorities join; covered nodes retire), but ~10³× faster, which is
what makes the paper's 10,000-trial evaluation (Table I / Figure 4)
practical in pure Python.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from ..core.registry import register
from ..core.result import MISResult
from ..graphs.graph import StaticGraph
from ..obs.profile import current_profiler
from ..runtime.rng import Draws, TrialDraws, as_draws
from .engine import (
    UnionSweep,
    copies_with,
    edge_both,
    neighbor_any,
    neighbor_count,
    neighbor_max,
    priority_keys,
)

__all__ = ["luby_sweep", "luby_degree_sweep", "FastLuby"]


def _live_edges(
    graph: StaticGraph, live: np.ndarray, edge_mask: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The usable edges (``edge_mask``) whose endpoints are both live."""
    es, ed = graph.edge_src, graph.edge_dst
    if edge_mask is None and live.all():
        return es, ed
    keep = edge_both(live, es, ed)
    if edge_mask is not None:
        keep &= edge_mask
    return es[keep], ed[keep]


def luby_sweep(
    graph: StaticGraph,
    draws: Draws | np.random.Generator,
    active: np.ndarray | None = None,
    edge_mask: np.ndarray | None = None,
    max_iterations: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run priority-variant Luby over the ``active`` subgraph.

    Returns ``(membership, rounds)``, where ``rounds[c]`` counts the
    iterations copy ``c`` of *draws* ran.  ``active`` and ``edge_mask``
    let host algorithms (FAIRTREE's fallback) restrict the sweep.  Only
    copies with a live vertex draw keys, and each iteration scans only
    the edges whose endpoints are both live: the list drops decided
    edges as it goes.
    """
    draws = as_draws(draws)
    n = graph.n
    live = np.ones(n, dtype=bool) if active is None else active.copy()
    member = np.zeros(n, dtype=bool)
    rounds = np.zeros(draws.copies, dtype=np.int64)
    if max_iterations is None:
        max_iterations = 8 * (int(np.log2(max(n, 2))) + 4)
    es, ed = _live_edges(graph, live, edge_mask)
    prof = current_profiler()  # hoisted: one contextvar read per sweep
    # Round timings accumulate in locals and flush once per sweep
    # (record_rounds), keeping the in-loop cost to two perf_counter reads.
    round_total = 0.0
    round_max = 0.0
    iterations = 0
    while True:
        alive = copies_with(live, draws.copies)
        if not alive.any():
            break
        iterations += 1
        if iterations > max_iterations:  # pragma: no cover - safety valve
            raise RuntimeError("Luby failed to terminate within the budget")
        started = time.perf_counter() if prof is not None else 0.0
        rounds += alive
        keys = priority_keys(draws, n, alive)
        best = neighbor_max(keys, es, ed, n)
        winners = live & (keys > best)  # includes isolated actives (best=-1)
        member |= winners
        covered = neighbor_any(winners, es, ed, n)
        live &= ~winners & ~covered
        still = live[es] & live[ed]
        es, ed = es[still], ed[still]
        if prof is not None:
            duration = time.perf_counter() - started
            round_total += duration
            if duration > round_max:
                round_max = duration
    if prof is not None and iterations:
        prof.record_rounds("luby.sweep", iterations, round_total, round_max)
    return member, rounds


def luby_degree_sweep(
    graph: StaticGraph,
    draws: Draws | np.random.Generator,
    active: np.ndarray | None = None,
    edge_mask: np.ndarray | None = None,
    max_iterations: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the ``1/(2d)`` marking variant over the ``active`` subgraph.

    Returns ``(membership, rounds)`` as :func:`luby_sweep` does.  The
    ``(degree, id)`` keys keep their order inside every copy of a union.
    """
    draws = as_draws(draws)
    n = graph.n
    live = np.ones(n, dtype=bool) if active is None else active.copy()
    member = np.zeros(n, dtype=bool)
    rounds = np.zeros(draws.copies, dtype=np.int64)
    if max_iterations is None:
        max_iterations = 64 * (int(np.log2(max(n, 2))) + 4)
    id_bits = max(1, int(n - 1).bit_length())
    ids = np.arange(n, dtype=np.int64)
    es, ed = _live_edges(graph, live, edge_mask)
    prof = current_profiler()
    round_total = 0.0
    round_max = 0.0
    iterations = 0
    while True:
        alive = copies_with(live, draws.copies)
        if not alive.any():
            break
        iterations += 1
        if iterations > max_iterations:  # pragma: no cover - safety valve
            raise RuntimeError("Luby(degree) failed to terminate within budget")
        started = time.perf_counter() if prof is not None else 0.0
        rounds += alive
        deg = neighbor_count(live, es, ed, n)
        isolated = live & (deg == 0)
        member |= isolated
        live &= ~isolated
        # a copy whose live nodes were all isolated is done: no marks
        marking = copies_with(live, draws.copies)
        if marking.any():
            prob = np.zeros(n)
            prob[live] = 1.0 / (2.0 * deg[live])
            marked = live & (draws.random(n, who=marking) < prob)
            keys = np.where(marked, (deg << id_bits) | ids, -1)
            best = neighbor_max(keys, es, ed, n)
            keep = marked & (keys > best)
            member |= keep
            covered = neighbor_any(keep, es, ed, n)
            live &= ~keep & ~covered
            still = live[es] & live[ed]
            es, ed = es[still], ed[still]
        if prof is not None:
            duration = time.perf_counter() - started
            round_total += duration
            if duration > round_max:
                round_max = duration
    if prof is not None and iterations:
        prof.record_rounds(
            "luby.degree_sweep", iterations, round_total, round_max
        )
    return member, rounds


@register("luby_fast")
class FastLuby:
    """Vectorized Luby as a :class:`~repro.core.result.MISAlgorithm`."""

    def __init__(self, variant: str = "priority", validate: bool = False) -> None:
        if variant not in ("priority", "degree"):
            raise ValueError(f"unknown Luby variant {variant!r}")
        self.variant = variant
        self.validate = validate

    @property
    def name(self) -> str:
        return "luby_fast" if self.variant == "priority" else "luby_degree_fast"

    def union_sweep(self, graph: StaticGraph) -> UnionSweep:
        """``sweep(union, draws) -> (membership, rounds)`` for unions of
        copies of *graph*: the variant's own kernel, which derives nothing
        from the size (the iteration cap is only a safety valve)."""
        return luby_sweep if self.variant == "priority" else luby_degree_sweep

    def run(self, graph: StaticGraph, rng: np.random.Generator) -> MISResult:
        member, rounds = self.union_sweep(graph)(graph, TrialDraws([rng]))
        result = MISResult(
            membership=member,
            info={"iterations": int(rounds[0]), "engine": "fast"},
        )
        if self.validate:
            result.validate(graph)
        return result
