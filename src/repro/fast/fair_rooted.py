"""Vectorized FAIRROOTED (§IV) + vectorized Cole–Vishkin.

Stage 1 is two vectorized coin arrays; stage 2 runs a fully vectorized
Cole–Vishkin reduction (the lowest-differing-bit computation is exact in
float64 ``log2`` because the isolated bit is a power of two ≤ 2⁶³) and the
six-phase color-class sweep over the uncovered subforest.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.registry import register
from ..core.result import MISResult
from ..graphs.graph import RootedTree, StaticGraph, tree_parents
from ..algorithms.cole_vishkin import cv_reduction_iterations
from ..runtime.rng import Draws, TrialDraws, as_draws
from .cfb import tile_parents
from .engine import UnionSweep, edge_both, neighbor_any

__all__ = [
    "FastFairRooted",
    "FastColeVishkin",
    "fair_rooted_run",
    "cole_vishkin_colors",
]


def cole_vishkin_colors(
    n: int,
    parent: np.ndarray,
    participating: np.ndarray,
    init_colors: np.ndarray | None = None,
    iterations: int | None = None,
) -> np.ndarray:
    """Vectorized CV color reduction to {0..5} over a rooted subforest.

    ``parent[v]`` must point to a participating parent or be ``-1``;
    non-participants keep color ``-1``.  ``init_colors`` / ``iterations``
    override the defaults (unique ids ``0..n-1``; the reduction count for
    an ``n``-id palette) — :meth:`FastFairRooted.union_sweep` pins both to
    the *base* graph so every copy reduces exactly as a lone trial would.
    """
    if init_colors is None:
        colors = np.arange(n, dtype=np.int64)
    else:
        colors = np.asarray(init_colors, dtype=np.int64).copy()
    iters = (
        iterations
        if iterations is not None
        else cv_reduction_iterations(max(n - 1, 1))
    )
    has_parent = participating & (parent >= 0)
    roots = participating & (parent < 0)
    safe_parent = np.where(has_parent, parent, 0)
    for _ in range(iters):
        pc = colors[safe_parent]
        # roots fabricate a differing virtual parent color
        pc = np.where(roots, np.where(colors == 0, 1, 0), pc)
        diff = colors ^ pc
        lsb = diff & -diff
        # exact for powers of two up to 2^62
        idx = np.where(diff != 0, np.log2(np.maximum(lsb, 1)).astype(np.int64), 0)
        bit = (colors >> idx) & 1
        new = 2 * idx + bit
        colors = np.where(participating, new, colors)
    out = np.where(participating, colors, -1)
    return out


def fair_rooted_run(
    graph: StaticGraph,
    parent: np.ndarray,
    draws: Draws | np.random.Generator,
    base_n: int | None = None,
) -> tuple[np.ndarray, dict[str, Any]]:
    """One FAIRROOTED execution; returns ``(membership, info)``.

    ``base_n`` pins the Cole–Vishkin size-derived parameters (initial id
    palette and reduction iteration count) to a base graph of which this
    graph is a disjoint union of copies — each copy then runs stage 2
    exactly as an isolated trial on the base graph would.
    """
    draws = as_draws(draws)
    n = graph.n
    es, ed = graph.edge_src, graph.edge_dst
    cv_init: np.ndarray | None = None
    cv_iters: int | None = None
    if base_n is not None:
        if base_n <= 0 or n % base_n != 0:
            raise ValueError(
                f"base_n={base_n} does not evenly divide union size n={n}"
            )
        cv_init = np.tile(np.arange(base_n, dtype=np.int64), n // base_n)
        cv_iters = cv_reduction_iterations(max(base_n - 1, 1))

    # -- Stage 1: random tags ------------------------------------------------ #
    tags = draws.integers(0, 2, size=n, dtype=np.int64)
    virtual = draws.integers(0, 2, size=n, dtype=np.int64)  # roots' sentinels
    parent_tag = np.where(parent >= 0, tags[np.where(parent >= 0, parent, 0)], virtual)
    i1 = (tags == 0) & (parent_tag == 1)
    covered = i1 | neighbor_any(i1, es, ed, n)

    # -- Stage 2: Cole–Vishkin MIS over the uncovered subforest --------------- #
    resid = ~covered
    resid_parent = np.where(
        (parent >= 0) & resid & resid[np.where(parent >= 0, parent, 0)],
        parent,
        -1,
    )
    colors = cole_vishkin_colors(
        n, resid_parent, resid, init_colors=cv_init, iterations=cv_iters
    )
    member = i1.copy()
    cv_covered = np.zeros(n, dtype=bool)
    emask = edge_both(resid, es, ed)
    for c in range(6):
        join = resid & (colors == c) & ~cv_covered & ~member
        member |= join
        cv_covered |= neighbor_any(join, es, ed, n, edge_mask=emask)
    info = {"engine": "fast", "stage1_size": int(i1.sum())}
    return member, info


@register("cole_vishkin_fast")
class FastColeVishkin:
    """Vectorized Cole–Vishkin MIS for rooted trees/forests.

    Deterministic given the rooting/IDs — its main uses are as the
    FAIRROOTED stage-2 subroutine and, wrapped in
    :class:`~repro.algorithms.random_ids.RandomizedIDs`, as the §II
    "deterministic algorithm under random IDs" study subject.
    """

    def __init__(self, tree: RootedTree | None = None, validate: bool = False) -> None:
        self.tree = tree
        self.validate = validate

    @property
    def name(self) -> str:
        return "cole_vishkin_fast"

    def run(self, graph: StaticGraph, rng: np.random.Generator) -> MISResult:
        n = graph.n
        parent = tree_parents(graph, self.tree)
        colors = cole_vishkin_colors(n, parent, np.ones(n, dtype=bool))
        es, ed = graph.edge_src, graph.edge_dst
        member = np.zeros(n, dtype=bool)
        covered = np.zeros(n, dtype=bool)
        for c in range(6):
            join = (colors == c) & ~covered & ~member
            member |= join
            covered |= neighbor_any(join, es, ed, n)
        result = MISResult(membership=member, info={"engine": "fast"})
        if self.validate:
            result.validate(graph)
        return result


@register("fair_rooted_fast")
class FastFairRooted:
    """Vectorized FAIRROOTED as a :class:`~repro.core.result.MISAlgorithm`.

    Accepts an explicit :class:`RootedTree` of the input graph or reads
    the graph's cached rooting from vertex 0
    (:func:`~repro.graphs.graph.tree_parents`).
    """

    def __init__(self, tree: RootedTree | None = None, validate: bool = False) -> None:
        self.tree = tree
        self.validate = validate

    @property
    def name(self) -> str:
        return "fair_rooted_fast"

    def union_sweep(self, graph: StaticGraph) -> UnionSweep:
        """``sweep(union, draws) -> (membership, None)`` for unions of
        copies of *graph*: each copy gets *graph*'s rooting shifted by its
        offset (:func:`~repro.fast.cfb.tile_parents`), and Cole–Vishkin is
        pinned to *graph*'s size (``base_n``)."""
        n = graph.n
        parent = tree_parents(graph, self.tree)

        def sweep(union: StaticGraph, draws: Draws) -> tuple[np.ndarray, None]:
            union_parent = tile_parents(parent, draws.copies)
            return fair_rooted_run(union, union_parent, draws, base_n=n)[0], None

        return sweep

    def run(self, graph: StaticGraph, rng: np.random.Generator) -> MISResult:
        member, info = fair_rooted_run(
            graph, tree_parents(graph, self.tree), TrialDraws([rng])
        )
        result = MISResult(membership=member, info=info)
        if self.validate:
            result.validate(graph)
        return result
