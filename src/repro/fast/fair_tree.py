"""Vectorized FAIRTREE (§V) — the Table I / Figure 4 evaluation engine.

Mirrors the four-stage structure of :mod:`repro.algorithms.fair_tree`
exactly, with every stage expressed as masked :func:`~repro.fast.cfb.cfb_fast`
calls and ``O(m)`` scatters:

* Stage 1 — per-edge cut coins, CFB over ``cut = 0`` edges → ``I₁``;
* Stage 2 — CFB over the subgraph induced by ``I₁`` (resolve) → ``I₂``;
* Stage 3 — CFB over nodes uncovered by ``I₂`` (maximalize) → ``I₃``;
* Stage 4 — drop independence violations, vectorized Luby on any
  remaining uncovered nodes (the ε ≤ 1/n fallback path).

Every run, lone or on a union in either mode, hands the CFB calls the
graph's cached :attr:`~repro.graphs.graph.StaticGraph.forest_layout`,
tiled per copy, so on a forest they read each call's outcome off the
rooting instead of flooding.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.registry import register
from ..core.result import MISResult
from ..graphs.graph import ForestLayout, StaticGraph
from ..algorithms.fair_tree import default_gamma
from ..obs.profile import phase
from ..runtime.rng import Draws, TrialDraws, as_draws
from .cfb import cfb_fast, tile_forest
from .engine import UnionSweep, neighbor_any
from .luby import luby_sweep

__all__ = ["FastFairTree", "fair_tree_run"]


def fair_tree_run(
    graph: StaticGraph,
    draws: Draws | np.random.Generator,
    gamma: int,
    forest: ForestLayout | None = None,
) -> tuple[np.ndarray, dict[str, Any]]:
    """One FAIRTREE execution; returns ``(membership, info)``.

    *forest* is *graph*'s :attr:`~StaticGraph.forest_layout`, passed on
    to every CFB call (see :func:`~repro.fast.cfb.cfb_fast`).
    """
    draws = as_draws(draws)
    n = graph.n
    es, ed = graph.edge_src, graph.edge_dst
    m = graph.m
    all_nodes = np.ones(n, dtype=bool)

    # -- Stage 1: cut + CFB on uncut edges ---------------------------------- #
    with phase("fair_tree.stage1_cut"):
        uncut = draws.integers(0, 2, size=m, dtype=np.int64) == 0
        uncut = np.concatenate([uncut, uncut])  # symmetric order
        i1 = cfb_fast(
            graph, draws, gamma, active=all_nodes, edge_mask=uncut, forest=forest
        )

    # -- Stage 2: resolve conflicts among I₁ -------------------------------- #
    with phase("fair_tree.stage2_resolve"):
        joined2 = cfb_fast(graph, draws, gamma, active=i1, forest=forest)
        i2 = i1 & joined2

    # -- Stage 3: maximalize over uncovered nodes ---------------------------- #
    with phase("fair_tree.stage3_maximalize"):
        covered2 = i2 | neighbor_any(i2, es, ed, n)
        uncovered = ~covered2
        joined3 = cfb_fast(graph, draws, gamma, active=uncovered, forest=forest)
        i3 = i2 | (uncovered & joined3)

    # -- Stage 4: fix + fallback --------------------------------------------- #
    with phase("fair_tree.stage4_fallback"):
        conflict = neighbor_any(i3, es, ed, n) & i3
        fixed = i3 & ~conflict
        covered = fixed | neighbor_any(fixed, es, ed, n)
        fallback_nodes = int((~covered).sum())
        member = fixed
        if fallback_nodes:
            extra, _ = luby_sweep(graph, draws, active=~covered)
            member = fixed | extra
    info = {
        "engine": "fast",
        "gamma": gamma,
        "fallback_nodes": fallback_nodes,
        "fallback_used": fallback_nodes > 0,
    }
    return member, info


@register("fair_tree_fast")
class FastFairTree:
    """Vectorized FAIRTREE as a :class:`~repro.core.result.MISAlgorithm`.

    Same parameters as :class:`repro.algorithms.fair_tree.FairTree`.
    """

    def __init__(
        self,
        gamma_c: float = 3.0,
        gamma: int | None = None,
        validate: bool = False,
    ) -> None:
        self.gamma_c = gamma_c
        self.gamma = gamma
        self.validate = validate

    @property
    def name(self) -> str:
        return "fair_tree_fast"

    def resolved_gamma(self, graph: StaticGraph) -> int:
        """γ this instance would use on *graph* (explicit or size-derived)."""
        return (
            self.gamma
            if self.gamma is not None
            else default_gamma(graph.n, self.gamma_c)
        )

    def union_sweep(self, graph: StaticGraph) -> UnionSweep:
        """``sweep(union, draws) -> (membership, None)`` for unions of
        copies of *graph*, with γ pinned to *graph* and *graph*'s forest
        layout tiled for the CFB calls."""
        gamma = self.resolved_gamma(graph)

        def sweep(union: StaticGraph, draws: Draws) -> tuple[np.ndarray, None]:
            forest = tile_forest(graph.forest_layout, draws.copies)
            return fair_tree_run(union, draws, gamma, forest)[0], None

        return sweep

    def run(self, graph: StaticGraph, rng: np.random.Generator) -> MISResult:
        member, info = fair_tree_run(
            graph,
            TrialDraws([rng]),
            self.resolved_gamma(graph),
            graph.forest_layout,
        )
        result = MISResult(membership=member, info=info)
        if self.validate:
            result.validate(graph)
        return result
