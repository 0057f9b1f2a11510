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
from .engine import (
    UnionSweep,
    edge_both,
    neighbor_any,
    neighbor_count,
    neighbor_max,
    priority_keys,
)

__all__ = ["luby_sweep", "luby_degree_sweep", "FastLuby"]


def luby_sweep(
    graph: StaticGraph,
    rng: np.random.Generator,
    active: np.ndarray | None = None,
    edge_mask: np.ndarray | None = None,
    max_iterations: int | None = None,
) -> tuple[np.ndarray, int]:
    """Run priority-variant Luby over the ``active`` subgraph.

    Returns ``(membership, iterations)``.  ``active`` and ``edge_mask``
    let host algorithms (FAIRTREE's fallback) restrict the sweep.
    """
    n = graph.n
    es, ed = graph.edge_src, graph.edge_dst
    live = np.ones(n, dtype=bool) if active is None else active.copy()
    member = np.zeros(n, dtype=bool)
    if max_iterations is None:
        max_iterations = 8 * (int(np.log2(max(n, 2))) + 4)
    prof = current_profiler()  # hoisted: one contextvar read per sweep
    # Round timings accumulate in locals and flush once per sweep
    # (record_rounds), keeping the in-loop cost to two perf_counter reads.
    round_total = 0.0
    round_max = 0.0
    iterations = 0
    while live.any():
        iterations += 1
        if iterations > max_iterations:  # pragma: no cover - safety valve
            raise RuntimeError("Luby failed to terminate within the budget")
        started = time.perf_counter() if prof is not None else 0.0
        keys = priority_keys(rng, n)
        emask = edge_both(live, es, ed)
        if edge_mask is not None:
            emask &= edge_mask
        best = neighbor_max(keys, es, ed, n, edge_mask=emask)
        winners = live & (keys > best)  # includes isolated actives (best=-1)
        member |= winners
        covered = neighbor_any(winners, es, ed, n, edge_mask=emask)
        live &= ~winners & ~covered
        if prof is not None:
            duration = time.perf_counter() - started
            round_total += duration
            if duration > round_max:
                round_max = duration
    if prof is not None and iterations:
        prof.record_rounds("luby.sweep", iterations, round_total, round_max)
    return member, iterations


def luby_degree_sweep(
    graph: StaticGraph,
    rng: np.random.Generator,
    active: np.ndarray | None = None,
    edge_mask: np.ndarray | None = None,
    max_iterations: int | None = None,
) -> tuple[np.ndarray, int]:
    """Run the ``1/(2d)`` marking variant over the ``active`` subgraph."""
    n = graph.n
    es, ed = graph.edge_src, graph.edge_dst
    live = np.ones(n, dtype=bool) if active is None else active.copy()
    member = np.zeros(n, dtype=bool)
    if max_iterations is None:
        max_iterations = 64 * (int(np.log2(max(n, 2))) + 4)
    id_bits = max(1, int(n - 1).bit_length())
    ids = np.arange(n, dtype=np.int64)
    prof = current_profiler()
    round_total = 0.0
    round_max = 0.0
    iterations = 0
    while live.any():
        iterations += 1
        if iterations > max_iterations:  # pragma: no cover - safety valve
            raise RuntimeError("Luby(degree) failed to terminate within budget")
        started = time.perf_counter() if prof is not None else 0.0
        emask = edge_both(live, es, ed)
        if edge_mask is not None:
            emask &= edge_mask
        deg = neighbor_count(live, es, ed, n, edge_mask=emask)
        isolated = live & (deg == 0)
        member |= isolated
        live &= ~isolated
        if not live.any():
            if prof is not None:
                duration = time.perf_counter() - started
                round_total += duration
                if duration > round_max:
                    round_max = duration
            break
        prob = np.zeros(n)
        prob[live] = 1.0 / (2.0 * deg[live])
        marked = live & (rng.random(n) < prob)
        keys = np.where(marked, (deg << id_bits) | ids, -1)
        best = neighbor_max(keys, es, ed, n, edge_mask=emask)
        keep = marked & (keys > best)
        member |= keep
        covered = neighbor_any(keep, es, ed, n, edge_mask=emask)
        live &= ~keep & ~covered
        if prof is not None:
            duration = time.perf_counter() - started
            round_total += duration
            if duration > round_max:
                round_max = duration
    if prof is not None and iterations:
        prof.record_rounds(
            "luby.degree_sweep", iterations, round_total, round_max
        )
    return member, iterations


@register("luby_fast")
class FastLuby:
    """Vectorized Luby as a :class:`~repro.core.result.MISAlgorithm`."""

    def __init__(self, variant: str = "priority", validate: bool = False) -> None:
        if variant not in ("priority", "degree"):
            raise ValueError(f"unknown Luby variant {variant!r}")
        self.variant = variant
        self.validate = validate
        if variant == "degree":
            self.union_sweep = None  # the marking variant has no batched path

    @property
    def name(self) -> str:
        return "luby_fast" if self.variant == "priority" else "luby_degree_fast"

    def union_sweep(self, graph: StaticGraph) -> UnionSweep:
        """``sweep(union, rng) -> membership`` for unions of copies of
        *graph*; the priority variant derives nothing from the size."""
        return lambda union, rng: luby_sweep(union, rng)[0]

    def run(self, graph: StaticGraph, rng: np.random.Generator) -> MISResult:
        sweep = luby_sweep if self.variant == "priority" else luby_degree_sweep
        member, iterations = sweep(graph, rng)
        result = MISResult(
            membership=member, info={"iterations": iterations, "engine": "fast"}
        )
        if self.validate:
            result.validate(graph)
        return result
