"""FAIRROOTED — the fair ``O(log* n)`` MIS algorithm for rooted trees (§IV).

Stage program (Figure 1 of the paper, with synchronization made explicit):

====  ========  ==============================================================
idx   rounds    action
====  ========  ==============================================================
S0    2         every node tags itself with a uniform bit (the root also
                draws its virtual parent's tag) and shares the tag; a node
                with ``tag = 0`` whose parent's tag is 1 joins ``I``.
S1    2         membership sync: nodes in ``I`` or covered by ``I`` will
                terminate; everyone learns which neighbors remain.
S2    2         coverage sync; decided nodes terminate (1 / 0).
S3    CV        remaining nodes (an uncovered rooted subforest) run the
                Cole–Vishkin ``O(log* n)`` MIS of [3]; then terminate.
====  ========  ==============================================================

Theorem 3: every node joins with probability ≥ 1/4 (Stage 0 alone yields
``Pr[v ∈ I] = Pr[tag_parent = 1] · Pr[tag_v = 0] = 1/4``), so the
inequality factor over rooted trees is at most 4.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.registry import register
from ..graphs.graph import RootedTree, StaticGraph, tree_parents
from ..runtime.message import Message
from ..runtime.node import NodeContext, NodeProcess
from ..runtime.staged import StagedProcess
from .base import ProtocolAlgorithm
from .cole_vishkin import CVEngine, cv_duration

__all__ = ["FairRooted", "FairRootedProcess"]


class FairRootedProcess(StagedProcess):
    """Per-vertex state machine for FAIRROOTED."""

    def __init__(self, parent: int | None, n: int) -> None:
        super().__init__()
        self._parent = parent
        self._n = n
        self._tag = 0
        self._in_i = False
        self._covered = False
        self._uncovered_nbrs: set[int] = set()
        self._cv: CVEngine | None = None

    def stage_lengths(self, ctx: NodeContext) -> list[int | None]:
        return [2, 2, 2, cv_duration(self._n - 1)]

    # -- S0: random tags ---------------------------------------------------- #
    def _stage0(self, ctx: NodeContext, r: int, inbox: list[Message]) -> None:
        if r == 0:
            self._tag = int(ctx.rng.integers(0, 2))
            ctx.broadcast({"type": "tag", "bit": self._tag})
        else:
            if self._parent is None:
                parent_tag = int(ctx.rng.integers(0, 2))  # virtual sentinel
            else:
                parent_tag = next(
                    int(m.payload["bit"])
                    for m in inbox
                    if m.payload.get("type") == "tag" and m.sender == self._parent
                )
            self._in_i = self._tag == 0 and parent_tag == 1

    # -- S1: membership sync -------------------------------------------------- #
    def _stage1(self, ctx: NodeContext, r: int, inbox: list[Message]) -> None:
        if r == 0:
            ctx.broadcast({"type": "mem", "in": self._in_i})
        else:
            nbr_in = any(
                m.payload["in"] for m in inbox if m.payload.get("type") == "mem"
            )
            self._covered = self._in_i or nbr_in

    # -- S2: coverage sync + termination -------------------------------------- #
    def _stage2(self, ctx: NodeContext, r: int, inbox: list[Message]) -> None:
        if r == 0:
            ctx.broadcast({"type": "status", "covered": self._covered})
        else:
            self._uncovered_nbrs = {
                m.sender
                for m in inbox
                if m.payload.get("type") == "status" and not m.payload["covered"]
            }
            if self._in_i:
                ctx.terminate(1)
            elif self._covered:
                ctx.terminate(0)

    # -- S3: Cole–Vishkin on the uncovered subforest ---------------------------- #
    def _stage3(self, ctx: NodeContext, r: int, inbox: list[Message]) -> None:
        if r == 0:
            cv_parent = (
                self._parent
                if self._parent is not None and self._parent in self._uncovered_nbrs
                else None
            )
            self._cv = CVEngine(
                parent=cv_parent,
                participating=True,
                peers=sorted(self._uncovered_nbrs),
                initial_color=ctx.node_id,
                max_initial_color=self._n - 1,
            )
        assert self._cv is not None
        self._cv.step(ctx, r, inbox)
        if r + 1 >= self._cv.duration:
            ctx.terminate(1 if self._cv.joined else 0)

    def on_stage_round(
        self, ctx: NodeContext, stage: int, r: int, inbox: list[Message]
    ) -> None:
        getattr(self, f"_stage{stage}")(ctx, r, inbox)


@register("fair_rooted")
class FairRooted(ProtocolAlgorithm):
    """FAIRROOTED as a :class:`~repro.core.result.MISAlgorithm`.

    Accepts an explicit :class:`RootedTree` of the input graph (the
    model's parent-pointer input) or reads the graph's cached rooting
    from vertex 0 (:func:`~repro.graphs.graph.tree_parents`).
    """

    def __init__(self, tree: RootedTree | None = None, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.tree = tree

    @property
    def name(self) -> str:
        return "fair_rooted"

    def prepare(self, graph: StaticGraph, rng: np.random.Generator) -> np.ndarray:
        return tree_parents(graph, self.tree)

    def build_process(
        self, v: int, graph: StaticGraph, shared: np.ndarray
    ) -> NodeProcess:
        parent = int(shared[v])
        return FairRootedProcess(parent if parent >= 0 else None, graph.n)
