"""COLORMIS — the ``O(k)``-fair MIS for ``k``-colorable graphs (§VII).

The algorithm composes three pieces already built in this package:

1. a distributed ``k``-coloring ``A`` (``repro.algorithms.coloring``), run
   for its w.h.p. budget — any node left uncolored simply proceeds
   uncolored (footnote 3 of the paper);
2. the augmented ``Construct_Block`` routine of §VI-A, with the leader's
   random *bit* replaced by a uniformly random *color* ``c_u`` that
   propagates unchanged; a node joins the candidate set iff it joined a
   block **and** its own color equals its leader's drawn color;
3. the shared finalize tail: violation fix (no-op when ``A`` succeeded,
   since color classes are independent sets), coverage resolution, and
   LUBY'S on the uncovered remainder.

Theorem 17: join probability ``Ω(1/k)`` for every node → inequality factor
``O(k)``.  With the arboricity coloring and planar inputs ``k`` is a
constant, giving Corollary 18's fair ``O(log² n)`` planar algorithm.

The paper assumes ``k`` is known to all nodes (it can be counted by block
leaders otherwise); we mirror that by computing the palette bound
centrally in :meth:`ColorMIS.prepare`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.registry import register
from ..graphs.graph import StaticGraph
from ..runtime.message import Message
from ..runtime.node import NodeContext, NodeProcess
from ..runtime.staged import StagedProcess
from .base import ProtocolAlgorithm
from .construct_block import (
    DEFAULT_P,
    ConstructBlockCall,
    block_duration,
    draw_radius,
)
from .coloring import (
    GreedyTrialColoringEngine,
    HPartitionColoringEngine,
    greedy_budget_iterations,
    hpartition_classes,
)
from .fair_bipart import check_block_params, default_block_gamma
from .finalize import FINALIZE_FIXED_ROUNDS, FinalizeTail

__all__ = ["ColorMIS", "ColorMISProcess"]


class ColorMISProcess(StagedProcess):
    """Per-vertex state machine for COLORMIS."""

    def __init__(
        self,
        coloring_kind: str,
        k: int,
        cap: int,
        gamma: int,
        p: float,
        slot_limit: int,
        n: int,
    ) -> None:
        super().__init__()
        self._kind = coloring_kind
        self._k = k
        self._cap = cap
        self._gamma = gamma
        self._p = p
        self._slot_limit = slot_limit
        self._n = n
        self._coloring: Any = None
        self._block: ConstructBlockCall | None = None
        self._tail: FinalizeTail | None = None
        self._in_i = False
        self.color: int | None = None

    def stage_lengths(self, ctx: NodeContext) -> list[int | None]:
        if self._kind == "greedy":
            color_rounds = 2 * greedy_budget_iterations(self._n)
        else:
            classes = hpartition_classes(self._n)
            trials = greedy_budget_iterations(self._n)
            color_rounds = 2 * classes + (classes + 1) * 2 * trials
        return [
            color_rounds,
            block_duration(self._gamma, self._slot_limit),
            FINALIZE_FIXED_ROUNDS,
            None,
        ]

    def on_stage_start(self, ctx: NodeContext, stage: int) -> None:
        if stage == 0:
            peers = list(ctx.neighbor_ids)
            if self._kind == "greedy":
                self._coloring = GreedyTrialColoringEngine(
                    peers, greedy_budget_iterations(self._n)
                )
            else:
                self._coloring = HPartitionColoringEngine(
                    peers,
                    self._cap,
                    hpartition_classes(self._n),
                    greedy_budget_iterations(self._n),
                )
        elif stage == 1:
            self.color = self._coloring.color
            self._block = ConstructBlockCall(
                gamma=self._gamma,
                participating=True,
                peers=list(ctx.neighbor_ids),
                mode="color",
                value=int(ctx.rng.integers(0, self._k)),
                radius=draw_radius(ctx.rng, self._gamma, self._p),
                slot_limit=self._slot_limit,
            )
        elif stage == 2:
            self._tail = FinalizeTail(in_set=self._in_i)

    def on_stage_round(
        self, ctx: NodeContext, stage: int, r: int, inbox: list[Message]
    ) -> None:
        if stage == 0:
            self._coloring.step(ctx, r, inbox)
        elif stage == 1:
            assert self._block is not None
            self._block.step(ctx, r, inbox)
            if r + 1 == self._block.duration:
                self._in_i = (
                    self._block.in_block
                    and self.color is not None
                    and self._block.leader_value == self.color
                )
        elif stage == 2:
            assert self._tail is not None
            self._tail.fixed_step(ctx, r, inbox)
        else:
            assert self._tail is not None
            self._tail.luby_step(ctx, r, inbox)


@register("color_mis")
class ColorMIS(ProtocolAlgorithm):
    """COLORMIS as a :class:`~repro.core.result.MISAlgorithm`.

    Parameters
    ----------
    coloring:
        ``"greedy"`` (``Δ+1`` colors, any graph) or ``"arboricity"``
        (``floor(2.5·a)+1`` colors — constant on planar inputs).
    k:
        Explicit palette bound override; defaults to the bound implied by
        the chosen coloring, computed centrally (the paper's "assume
        knowledge of k").
    gamma_c / gamma / p:
        Construct_Block parameters as in :class:`~.fair_bipart.FairBipart`.
    """

    def __init__(
        self,
        coloring: str = "greedy",
        k: int | None = None,
        gamma_c: float = 2.0,
        gamma: int | None = None,
        p: float = DEFAULT_P,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        if coloring not in ("greedy", "arboricity"):
            raise ValueError(f"unknown coloring kind {coloring!r}")
        check_block_params(gamma, p)
        self.coloring = coloring
        self.k = k
        self.gamma_c = gamma_c
        self.gamma = gamma
        self.p = p

    @property
    def name(self) -> str:
        return "color_mis" if self.coloring == "greedy" else "color_mis_arb"

    def prepare(
        self, graph: StaticGraph, rng: np.random.Generator
    ) -> dict[str, int]:
        gamma = (
            self.gamma
            if self.gamma is not None
            else default_block_gamma(graph.n, self.gamma_c)
        )
        if self.coloring == "greedy":
            cap = graph.max_degree
            k = self.k if self.k is not None else graph.max_degree + 1
        else:
            from ..graphs.properties import arboricity_upper_bound

            a = arboricity_upper_bound(graph)
            cap = max(1, int(2.5 * a))
            k = self.k if self.k is not None else cap + 1
        return {"gamma": gamma, "k": max(1, k), "cap": cap}

    def run_info(self, shared: dict[str, int]) -> dict[str, Any]:
        return {"k": shared["k"], "gamma": shared["gamma"]}

    def build_process(
        self, v: int, graph: StaticGraph, shared: dict[str, int]
    ) -> NodeProcess:
        return ColorMISProcess(
            coloring_kind=self.coloring,
            k=shared["k"],
            cap=shared["cap"],
            gamma=shared["gamma"],
            p=self.p,
            slot_limit=self.slot_limit,
            n=graph.n,
        )
