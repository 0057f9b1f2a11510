"""Vectorized Linial–Saks ``Construct_Block`` (§VI-A) and the block-based
algorithms FAIRBIPART and COLORMIS on top of it.

The leader table is a dense ``(R+1, n)`` int64 matrix of packed
``id·base + value`` keys (``base = 2`` for parity bits, ``base = k`` for
colors), where ``R ≤ γ`` is the largest radius drawn; row ``j`` is the
column ``L[j]`` of every node's table.  At the fixed point of the
faithful engine's superrounds, ``L[j]`` is the maximum of a node's own
entry and its neighbours' ``L[j+1]`` (parity bit flipped in bit mode),
and ``L[R]`` holds only initial entries.  So one top-down pass, one
``np.maximum.at`` scatter over the symmetric edge list per column,
computes every column once: a call costs ``O(R·m)`` numpy work, not the
``O(γ²·m)`` of replaying all γ superrounds.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.registry import register
from ..core.result import MISResult
from ..graphs.graph import StaticGraph
from ..algorithms.fair_bipart import check_block_params, default_block_gamma
from ..obs.profile import current_profiler
from ..runtime.rng import Draws, TrialDraws, as_draws
from .engine import UnionSweep, copies_with, neighbor_any, neighbor_count
from .luby import luby_sweep

__all__ = [
    "draw_radii",
    "construct_block_fast",
    "fair_bipart_run",
    "color_mis_run",
    "color_mis_iterations",
    "FastFairBipart",
    "FastColorMIS",
]


def draw_radii(
    draws: Draws | np.random.Generator, n: int, gamma: int, p: float = 0.5
) -> np.ndarray:
    """Vectorized sampling from the truncated geometric ``π``.

    ``Pr[r >= k] = p^k`` for ``k <= γ``, so ``r = min(γ, floor(log_p U))``.
    """
    check_block_params(gamma, p)
    draws = as_draws(draws)
    u = np.maximum(draws.random(n), 1e-300)  # guard log(0)
    raw = np.floor(np.log(u) / np.log(p))
    return np.minimum(raw.astype(np.int64), gamma)


def construct_block_fast(
    graph: StaticGraph,
    draws: Draws | np.random.Generator,
    gamma: int,
    values: np.ndarray,
    mode: str,
    value_base: int,
    p: float = 0.5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Construct_Block call.

    Parameters
    ----------
    values:
        Per-node candidate-leader value (random bit or random color), in
        ``[0, value_base)``.
    mode:
        ``"bit"`` (parity-flip per hop) or ``"color"`` (unchanged).
    value_base:
        Packing base — must exceed every value (2 for bits, k for colors).

    Returns ``(in_block, leader, leader_value)``; ``leader_value`` is -1
    outside blocks.
    """
    if mode not in ("bit", "color"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "bit" and value_base != 2:
        raise ValueError(f"bit mode needs value_base 2, got {value_base}")
    values = np.asarray(values, dtype=np.int64)
    if values.size and (values.min() < 0 or values.max() >= value_base):
        raise ValueError(f"values must lie in [0, {value_base})")
    n = graph.n
    es, ed = graph.edge_src, graph.edge_dst
    radii = draw_radii(draws, n, gamma, p)
    top = int(radii.max()) if n else 0

    # table[j, v] = largest key id·base + value v holds with j range left;
    # -1 = empty.  Row `top` holds only own entries; each lower row is its
    # own entries maxed with the neighbours' row above.
    table = np.full((top + 1, n), -1, dtype=np.int64)
    ids = np.arange(n, dtype=np.int64)
    table[radii, ids] = ids * value_base + values
    for j in range(top - 1, -1, -1):
        sent = table[j + 1][es]
        if mode == "bit":
            sent ^= 1  # parity flip; an empty -1 becomes -2, below the fill
        np.maximum.at(table[j], ed, sent)
    prof = current_profiler()
    if prof is not None:
        prof.count("blocks.columns", top)

    # Every node holds its own entry, so its leader is the largest id in
    # its table.  Its keys are the ones >= leader·base, and the highest
    # index holding one is the true-distance entry.
    leader = table.max(axis=0) // value_base
    floor = leader * value_base
    rows = np.arange(top + 1, dtype=np.int64)[:, None]
    top_idx = ((table >= floor) * rows).max(axis=0)
    in_block = top_idx > 0
    leader_value = np.where(in_block, table[top_idx, ids] - floor, np.int64(-1))
    return in_block, leader, leader_value


def _finalize_fast(
    graph: StaticGraph,
    draws: Draws,
    candidate: np.ndarray,
) -> tuple[np.ndarray, dict[str, Any]]:
    """Shared tail: drop violations, cover, Luby the remainder."""
    n = graph.n
    es, ed = graph.edge_src, graph.edge_dst
    conflict = candidate & neighbor_any(candidate, es, ed, n)
    fixed = candidate & ~conflict
    covered = fixed | neighbor_any(fixed, es, ed, n)
    member = fixed
    luby_nodes = int((~covered).sum())
    if luby_nodes:
        extra, _ = luby_sweep(graph, draws, active=~covered)
        member = fixed | extra
    return member, {"luby_nodes": luby_nodes}


def fair_bipart_run(
    graph: StaticGraph,
    draws: Draws | np.random.Generator,
    gamma: int,
    p: float = 0.5,
) -> tuple[np.ndarray, dict[str, Any]]:
    """One FAIRBIPART execution with explicit γ; ``(membership, info)``.

    The parameter-free entry point is :meth:`FastFairBipart.run`;
    :meth:`FastFairBipart.union_sweep` calls this directly with γ resolved
    from the *base* graph so every disjoint-union copy behaves like a lone
    trial.
    """
    draws = as_draws(draws)
    bits = draws.integers(0, 2, size=graph.n, dtype=np.int64)
    in_block, _, leader_val = construct_block_fast(
        graph, draws, gamma, bits, mode="bit", value_base=2, p=p
    )
    candidate = in_block & (leader_val == 1)
    member, tail_info = _finalize_fast(graph, draws, candidate)
    info = {
        "engine": "fast",
        "gamma": gamma,
        "block_fraction": float(in_block.mean()) if graph.n else 0.0,
        **tail_info,
    }
    return member, info


@register("fair_bipart_fast")
class FastFairBipart:
    """Vectorized FAIRBIPART (§VI); parameters as the faithful version."""

    def __init__(
        self,
        gamma_c: float = 2.0,
        gamma: int | None = None,
        p: float = 0.5,
        validate: bool = False,
    ) -> None:
        check_block_params(gamma, p)
        self.gamma_c = gamma_c
        self.gamma = gamma
        self.p = p
        self.validate = validate

    @property
    def name(self) -> str:
        return "fair_bipart_fast"

    def resolved_gamma(self, graph: StaticGraph) -> int:
        """γ this instance would use on *graph* (explicit or size-derived)."""
        return (
            self.gamma
            if self.gamma is not None
            else default_block_gamma(graph.n, self.gamma_c)
        )

    def union_sweep(self, graph: StaticGraph) -> UnionSweep:
        """``sweep(union, draws) -> (membership, None)`` for unions of
        copies of *graph*, with γ pinned to *graph*."""
        gamma = self.resolved_gamma(graph)
        return lambda union, draws: (
            fair_bipart_run(union, draws, gamma, p=self.p)[0], None
        )

    def run(self, graph: StaticGraph, rng: np.random.Generator) -> MISResult:
        member, info = fair_bipart_run(
            graph, TrialDraws([rng]), self.resolved_gamma(graph), p=self.p
        )
        result = MISResult(membership=member, info=info)
        if self.validate:
            result.validate(graph)
        return result


def greedy_coloring_fast(
    graph: StaticGraph,
    draws: Draws | np.random.Generator,
    iterations: int,
) -> np.ndarray:
    """Vectorized random-trial ``(deg+1)``-list coloring; -1 = uncolored.

    Only copies with an uncolored vertex propose."""
    draws = as_draws(draws)
    n = graph.n
    es, ed = graph.edge_src, graph.edge_dst
    deg = graph.degrees
    colors = np.full(n, -1, dtype=np.int64)
    for _ in range(iterations):
        todo = colors < 0
        who = copies_with(todo, draws.copies)
        if not who.any():
            break
        prop = draws.integers(0, deg + 1, size=n, who=who)
        prop = np.where(todo, prop, colors)
        if es.size:
            # reject: proposal equals a neighbor's color or proposal
            clash = np.zeros(n, dtype=bool)
            same = prop[es] == prop[ed]
            clash[ed[same]] = True
        else:
            clash = np.zeros(n, dtype=bool)
        colors = np.where(todo & ~clash, prop, colors)
    return colors


def arboricity_coloring_fast(
    graph: StaticGraph,
    draws: Draws | np.random.Generator,
    cap: int,
    iterations: int,
) -> np.ndarray:
    """Vectorized H-partition coloring (cap+1 colors); -1 = uncolored.

    Peels vertices of active degree <= ``cap`` into classes, then colors
    classes in reverse peel order with palette ``{0..cap}`` by random
    trials — the fast-layer counterpart of
    :class:`repro.algorithms.coloring.HPartitionColoringEngine`.  Only
    copies with an uncolored vertex in the class propose.
    """
    draws = as_draws(draws)
    n = graph.n
    es, ed = graph.edge_src, graph.edge_dst
    h_class = np.full(n, -1, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    cls = 0
    while active.any():
        deg = neighbor_count(active, es, ed, n) if es.size else np.zeros(n, int)
        peel = active & (deg <= cap)
        if not peel.any():  # cap too small for this subgraph: dump the rest
            h_class[active] = cls
            break
        h_class[peel] = cls
        active &= ~peel
        cls += 1
    colors = np.full(n, -1, dtype=np.int64)
    for c in range(int(h_class.max()), -1, -1):
        in_class = h_class == c
        for _ in range(iterations):
            todo = in_class & (colors < 0)
            who = copies_with(todo, draws.copies)
            if not who.any():
                break
            prop = draws.integers(0, cap + 1, size=n, who=who)
            prop = np.where(todo, prop, colors)
            clash = np.zeros(n, dtype=bool)
            if es.size:
                both = (prop[es] >= 0) & (prop[ed] >= 0)
                same = (prop[es] == prop[ed]) & both
                clash[ed[same]] = True
            colors = np.where(todo & ~clash, prop, colors)
    return colors


def color_mis_iterations(n: int) -> int:
    """Coloring trial budget used by COLORMIS for an ``n``-vertex graph."""
    return 4 * (int(np.log2(max(n, 2))) + 4)


def color_mis_run(
    graph: StaticGraph,
    draws: Draws | np.random.Generator,
    gamma: int,
    k: int,
    iterations: int,
    coloring: str = "greedy",
    cap: int | None = None,
    p: float = 0.5,
) -> tuple[np.ndarray, dict[str, Any]]:
    """One COLORMIS execution with every parameter explicit.

    ``(membership, info)``.  ``cap`` is required for
    ``coloring="arboricity"``.  :meth:`FastColorMIS.union_sweep` resolves
    γ, k, iteration budget, and cap from the *base* graph (via
    :meth:`FastColorMIS.resolved_params`) so disjoint-union copies run
    with identical parameters to lone trials.
    """
    draws = as_draws(draws)
    n = graph.n
    if coloring == "greedy":
        colors = greedy_coloring_fast(graph, draws, iterations)
    elif coloring == "arboricity":
        if cap is None:
            raise ValueError("arboricity coloring requires an explicit cap")
        colors = arboricity_coloring_fast(graph, draws, cap, iterations)
    else:
        raise ValueError(f"unknown coloring kind {coloring!r}")
    k = max(1, k)
    chosen = draws.integers(0, k, size=n, dtype=np.int64)
    in_block, _, leader_val = construct_block_fast(
        graph, draws, gamma, chosen, mode="color", value_base=k, p=p
    )
    candidate = in_block & (colors >= 0) & (leader_val == colors)
    member, tail_info = _finalize_fast(graph, draws, candidate)
    info = {
        "engine": "fast",
        "gamma": gamma,
        "k": k,
        "uncolored": int((colors < 0).sum()),
        **tail_info,
    }
    return member, info


@register("color_mis_fast")
class FastColorMIS:
    """Vectorized COLORMIS (§VII).

    ``coloring="greedy"`` (default) uses the ``Δ+1`` trial coloring;
    ``coloring="arboricity"`` uses the H-partition coloring whose palette
    depends on arboricity, not maximum degree — the Corollary 18 route to
    constant fairness on planar graphs.
    """

    def __init__(
        self,
        k: int | None = None,
        coloring: str = "greedy",
        gamma_c: float = 2.0,
        gamma: int | None = None,
        p: float = 0.5,
        validate: bool = False,
    ) -> None:
        if coloring not in ("greedy", "arboricity"):
            raise ValueError(f"unknown coloring kind {coloring!r}")
        check_block_params(gamma, p)
        self.k = k
        self.coloring = coloring
        self.gamma_c = gamma_c
        self.gamma = gamma
        self.p = p
        self.validate = validate

    @property
    def name(self) -> str:
        return (
            "color_mis_fast"
            if self.coloring == "greedy"
            else "color_mis_arb_fast"
        )

    def resolved_params(self, graph: StaticGraph) -> dict[str, Any]:
        """Size-derived parameters this instance would use on *graph*.

        Returns ``{"gamma", "k", "iterations", "cap"}`` (``cap`` is
        ``None`` for the greedy coloring).  All of γ, the palette size k,
        the coloring trial budget, and the arboricity cap depend on the
        input graph's size/structure, so :meth:`union_sweep` resolves
        them from the base graph rather than the disjoint union.
        """
        gamma = (
            self.gamma
            if self.gamma is not None
            else default_block_gamma(graph.n, self.gamma_c)
        )
        iterations = color_mis_iterations(graph.n)
        if self.coloring == "greedy":
            cap = None
            k = self.k if self.k is not None else graph.max_degree + 1
        else:
            from ..graphs.properties import arboricity_upper_bound

            cap = max(1, int(2.5 * arboricity_upper_bound(graph)))
            k = self.k if self.k is not None else cap + 1
        return {"gamma": gamma, "k": max(1, k), "iterations": iterations, "cap": cap}

    def union_sweep(self, graph: StaticGraph) -> UnionSweep:
        """``sweep(union, draws) -> (membership, None)`` for unions of
        copies of *graph*, with :meth:`resolved_params` taken from
        *graph*."""
        params = self.resolved_params(graph)
        return lambda union, draws: (
            color_mis_run(
                union, draws, coloring=self.coloring, p=self.p, **params
            )[0],
            None,
        )

    def run(self, graph: StaticGraph, rng: np.random.Generator) -> MISResult:
        member, info = color_mis_run(
            graph,
            TrialDraws([rng]),
            coloring=self.coloring,
            p=self.p,
            **self.resolved_params(graph),
        )
        result = MISResult(membership=member, info=info)
        if self.validate:
            result.validate(graph)
        return result
