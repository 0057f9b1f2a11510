"""FAIRBIPART — the fair ``O(log² n)`` MIS algorithm for bipartite graphs (§VI).

Stage program (Figure 3 of the paper):

====  ==================  ====================================================
idx   rounds              action
====  ==================  ====================================================
S0    γ·SR + 1            augmented ``Construct_Block``: every node draws a
                          radius from ``π`` and a bit ``b_v``; leader tables
                          flood for γ superrounds with the bit parity-flipped
                          per hop.  A node joins ``I`` iff it lands in a
                          block and its table bit for the leader is 1.
S1    5                   shared finalize tail: sync, (no-op on bipartite
                          graphs) violation fix, coverage; decided terminate.
S2    open-ended          LUBY'S on the uncovered remainder (maximality).
====  ==================  ====================================================

``SR = ceil((γ+1)/entries-per-message)`` is the superround length imposed
by the ``O(log n)``-bit message model; with ``γ = Θ(log n)`` the total is
``O(log² n)`` rounds (Lemma 15).  Theorem 13: with ``γ = 2·lg n`` and
``p = 1/2`` every node joins with probability ≥ 1/8, so the inequality
factor over bipartite graphs is at most 8.
"""

from __future__ import annotations

import math
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
from .finalize import FINALIZE_FIXED_ROUNDS, FinalizeTail

__all__ = [
    "FairBipart",
    "FairBipartProcess",
    "check_block_params",
    "default_block_gamma",
]


def default_block_gamma(n: int, c: float = 2.0) -> int:
    """The paper's ``γ = c·lg n`` (c = 2 for the inequality-8 bound)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return max(1, math.ceil(c * math.log2(max(n, 2))))


def check_block_params(gamma: int | None, p: float) -> None:
    """Reject Construct_Block parameters outside the model.

    ``π`` is a geometric distribution only for ``0 < p < 1``, and a block
    needs a radius budget ``γ >= 1``; ``gamma=None`` (size-derived) passes.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    if gamma is not None and gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma!r}")


class FairBipartProcess(StagedProcess):
    """Per-vertex state machine for FAIRBIPART."""

    def __init__(self, gamma: int, p: float, slot_limit: int) -> None:
        super().__init__()
        self._gamma = gamma
        self._p = p
        self._slot_limit = slot_limit
        self._block: ConstructBlockCall | None = None
        self._tail: FinalizeTail | None = None
        self._in_i = False

    @property
    def used_luby(self) -> bool:
        """True when this node entered the maximalization Luby stage."""
        return self._tail is not None and self._tail.used_luby

    def stage_lengths(self, ctx: NodeContext) -> list[int | None]:
        return [
            block_duration(self._gamma, self._slot_limit),
            FINALIZE_FIXED_ROUNDS,
            None,
        ]

    def on_stage_start(self, ctx: NodeContext, stage: int) -> None:
        if stage == 0:
            self._block = ConstructBlockCall(
                gamma=self._gamma,
                participating=True,
                peers=list(ctx.neighbor_ids),
                mode="bit",
                value=int(ctx.rng.integers(0, 2)),
                radius=draw_radius(ctx.rng, self._gamma, self._p),
                slot_limit=self._slot_limit,
            )
        elif stage == 1:
            self._tail = FinalizeTail(in_set=self._in_i)

    def on_stage_round(
        self, ctx: NodeContext, stage: int, r: int, inbox: list[Message]
    ) -> None:
        if stage == 0:
            assert self._block is not None
            self._block.step(ctx, r, inbox)
            if r + 1 == self._block.duration:
                self._in_i = (
                    self._block.in_block and self._block.leader_value == 1
                )
        elif stage == 1:
            assert self._tail is not None
            self._tail.fixed_step(ctx, r, inbox)
        else:
            assert self._tail is not None
            self._tail.luby_step(ctx, r, inbox)


@register("fair_bipart")
class FairBipart(ProtocolAlgorithm):
    """FAIRBIPART as a :class:`~repro.core.result.MISAlgorithm`.

    Parameters
    ----------
    gamma_c:
        Constant ``c`` in ``γ = c·lg n``; the paper's analysis fixes 2.
        Larger values push the inequality bound from 8 toward 4 at a
        multiplicative round cost (end of §VI-C) — see the ablation bench.
    gamma:
        Explicit override for γ.
    p:
        Geometric parameter of the radius distribution (paper: 1/2).
    """

    def __init__(
        self,
        gamma_c: float = 2.0,
        gamma: int | None = None,
        p: float = DEFAULT_P,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        check_block_params(gamma, p)
        self.gamma_c = gamma_c
        self.gamma = gamma
        self.p = p

    @property
    def name(self) -> str:
        return "fair_bipart"

    def prepare(self, graph: StaticGraph, rng: np.random.Generator) -> int:
        return (
            self.gamma
            if self.gamma is not None
            else default_block_gamma(graph.n, self.gamma_c)
        )

    def build_process(self, v: int, graph: StaticGraph, shared: int) -> NodeProcess:
        return FairBipartProcess(shared, self.p, self.slot_limit)
