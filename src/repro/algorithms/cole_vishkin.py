"""Cole–Vishkin deterministic coin tossing [3] for rooted trees/forests.

Provides the ``O(log* n)`` subroutine FAIRROOTED needs for its second
stage: a deterministic 6-coloring of a rooted forest by iterated bit-index
reduction, followed by the standard color-class sweep that converts any
``O(1)``-coloring into an MIS in ``O(1)`` additional rounds.

The engine is exposed both as an embeddable step-driven object
(:class:`CVEngine`, mirroring :class:`~.cntrl_fair_bipart.CFBCall`) and as
a standalone registered algorithm (:class:`ColeVishkinMIS`).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.registry import register
from ..graphs.graph import RootedTree, StaticGraph, tree_parents
from ..runtime.message import Message
from ..runtime.node import NodeContext, NodeProcess
from .base import ProtocolAlgorithm

__all__ = ["CVEngine", "cv_reduction_iterations", "cv_duration", "ColeVishkinMIS"]

#: After reduction every color lies in {0..5}; the MIS sweep runs one
#: 2-round phase per color.
FINAL_COLORS = 6


def cv_reduction_iterations(max_initial_color: int) -> int:
    """Number of bit-reduction iterations until all colors are in {0..5}.

    One iteration maps a color of bit-length ``b`` to at most ``2(b-1)+1``;
    iterating reaches the fixed point 5 in ``O(log* n)`` steps.
    """
    cmax = max(1, int(max_initial_color))
    iters = 0
    while cmax > 5:
        cmax = 2 * (cmax.bit_length() - 1) + 1
        iters += 1
    return iters


def cv_duration(max_initial_color: int) -> int:
    """Total rounds for one embedded CV call (reduction + MIS sweep)."""
    return cv_reduction_iterations(max_initial_color) + 1 + 2 * FINAL_COLORS


class CVEngine:
    """One embedded Cole–Vishkin execution over a rooted subforest.

    Parameters
    ----------
    parent:
        The host vertex's parent inside the subforest, or ``None`` for a
        root (including nodes whose original parent does not participate).
    participating:
        Whether the host vertex takes part; non-participants stay silent
        for the full :attr:`duration`.
    peers:
        Neighbor IDs participating alongside (used for the MIS sweep
        broadcasts; the reduction only reads the parent's messages).
    initial_color:
        A color distinct from every neighbor's — node IDs qualify.
    max_initial_color:
        Global bound on initial colors (all nodes must agree so the
        iteration count is synchronized); typically ``n - 1``.
    """

    def __init__(
        self,
        parent: int | None,
        participating: bool,
        peers: list[int],
        initial_color: int,
        max_initial_color: int,
    ) -> None:
        self.parent = parent
        self.participating = participating
        self.peers = list(peers)
        self.color = int(initial_color)
        self._iters = cv_reduction_iterations(max_initial_color)
        self.duration = self._iters + 1 + 2 * FINAL_COLORS
        self.joined = False
        self.covered = False

    # ------------------------------------------------------------------ #
    def _bcast(self, ctx: NodeContext, payload: dict[str, Any]) -> None:
        for w in self.peers:
            ctx.send(w, payload)

    @staticmethod
    def _reduce(own: int, parent_color: int) -> int:
        """One Cole–Vishkin step: lowest differing bit index + own bit."""
        diff = own ^ parent_color
        i = (diff & -diff).bit_length() - 1  # index of lowest set bit
        return 2 * i + ((own >> i) & 1)

    def _virtual_parent_color(self) -> int:
        """Roots reduce against a fabricated color differing from theirs."""
        return 1 if self.color == 0 else 0

    def step(self, ctx: NodeContext, r: int, inbox: list[Message]) -> None:
        """Advance one round (``r`` counts from 0 within the call)."""
        if not self.participating:
            return
        k = self._iters
        if r <= k:
            # -- reduction pipeline: broadcast c_t, compute c_{t+1} ------- #
            if r > 0:
                parent_color = None
                if self.parent is None:
                    parent_color = self._virtual_parent_color()
                else:
                    for msg in inbox:
                        if (
                            msg.payload.get("type") == "cvcol"
                            and msg.sender == self.parent
                        ):
                            parent_color = int(msg.payload["c"])
                            break
                if parent_color is None:
                    # Parent silent (shouldn't happen among participants);
                    # behave as a root to stay within {0..5} on schedule.
                    parent_color = self._virtual_parent_color()
                self.color = self._reduce(self.color, parent_color)
            if r < k:
                self._bcast(ctx, {"type": "cvcol", "c": self.color})
            return
        # -- MIS sweep: one 2-round phase per color class ------------------ #
        local = r - (k + 1)
        phase, sub = divmod(local, 2)
        if sub == 0:
            if self.color == phase and not self.covered and not self.joined:
                self.joined = True
                self._bcast(ctx, {"type": "cvjoin"})
        else:
            if any(msg.payload.get("type") == "cvjoin" for msg in inbox):
                self.covered = True


class _CVProcess(NodeProcess):
    """Standalone node process: a single CV call over the whole tree."""

    def __init__(self, parent: int | None, n: int) -> None:
        self._parent = parent
        self._n = n
        self._engine: CVEngine | None = None
        self._r = -1

    def on_start(self, ctx: NodeContext) -> None:
        self._engine = CVEngine(
            parent=self._parent,
            participating=True,
            peers=list(ctx.neighbor_ids),
            initial_color=ctx.node_id,
            max_initial_color=self._n - 1,
        )
        self._step(ctx, [])

    def on_round(self, ctx: NodeContext, inbox: list[Message]) -> None:
        self._step(ctx, inbox)

    def _step(self, ctx: NodeContext, inbox: list[Message]) -> None:
        assert self._engine is not None
        self._r += 1
        self._engine.step(ctx, self._r, inbox)
        if self._r + 1 >= self._engine.duration:
            ctx.terminate(1 if self._engine.joined else 0)


@register("cole_vishkin")
class ColeVishkinMIS(ProtocolAlgorithm):
    """Deterministic ``O(log* n)`` MIS for rooted trees/forests.

    Accepts either a :class:`RootedTree` of the input graph at
    construction or reads the graph's cached rooting from vertex 0
    (:func:`~repro.graphs.graph.tree_parents`) in :meth:`prepare` — the
    model of Section IV provides parent pointers as input, so this rooting
    stands in for that input.

    Being deterministic, its inequality factor on a fixed assignment of
    IDs is infinite (Section II's observation); it exists as a *subroutine*
    and as a baseline, not as a fair algorithm.
    """

    def __init__(self, tree: RootedTree | None = None, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.tree = tree

    @property
    def name(self) -> str:
        return "cole_vishkin"

    def prepare(self, graph: StaticGraph, rng: np.random.Generator) -> np.ndarray:
        return tree_parents(graph, self.tree)

    def build_process(
        self, v: int, graph: StaticGraph, shared: np.ndarray
    ) -> NodeProcess:
        parent = int(shared[v])
        return _CVProcess(parent if parent >= 0 else None, graph.n)
