"""Vectorized CNTRLFAIRBIPART (§V-A) — round-exact numpy emulation.

Reproduces the faithful engine's semantics per round:

* up to ``D̂`` iterations of max-ID flooding over the call's edge set
  (election);
* BFS levels from self-elected leaders, where a node only accepts labels
  travelling under *its own* elected leader's ID (the failure-mode guard
  of the faithful code);
* join rule ``level + b_leader ≡ 0 (mod 2)``; isolated leaders always join.

The flood runs only rounds that change some node's maximum, and each
round scatters only the offers that improve: a round in which no edge
offers a larger ID is a fixed point, so every later round of the
faithful schedule would be a no-op.  Once the flood has settled, each
node's round of last increase is its distance from its component's
leader, which is exactly the level the origin-checked BFS would assign,
so the BFS is skipped.  It runs only when the budget cut the flood short
(the paper's ``D̂ < D`` failure mode), where several leaders can share a
component.  A call therefore costs ``O(r·m)`` numpy work for the
``r ≤ D̂`` rounds until the flood settles — about 5 on the paper's
trees, against ``D̂ = γ`` of 25–38 — and ``O(D̂·m)`` only for a flood cut
short.  This is what lets FAIRTREE run 10⁴ Monte-Carlo trials on them.
Membership and the random numbers drawn are those of the full
``2·D̂``-round schedule.

On a forest the settled flood's outcome can be read off a rooting
instead: every FAIRTREE call, lone or on a union in either mode, passes
:attr:`StaticGraph.forest_layout`, tiled per copy.  A component of the
call's usable edges is a subtree with one topmost node; pointer jumping
along usable parent links finds it for every node in ``O(log depth)``
passes, the component's largest ID is its leader, and a node's level
parity is its depth parity against the leader's.
The flood would settle within ``D̂`` rounds iff every leader's
eccentricity is at most ``D̂``, which holds when ``dist(leader, top) +
height ≤ D̂``; a call that cannot show this, or whose edge mask differs
between an edge's two directions, runs the flood.  On a union of copies
(:func:`tile_forest`) the check spans every copy, so one copy that
cannot show it floods the whole union: the flood settles for the others
and gives them the same outcome.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import ForestLayout, StaticGraph
from ..obs.profile import current_profiler, phase
from ..runtime.rng import Draws, as_draws

__all__ = ["cfb_fast", "tile_forest", "tile_parents"]


def tile_parents(parent: np.ndarray, copies: int) -> np.ndarray:
    """*parent* (``-1`` at roots) for the disjoint union of ``copies``
    copies of its graph (:func:`~repro.fast.batched.disjoint_power`'s
    layout: copy ``c`` holds vertices ``[c·n, (c+1)·n)``)."""
    shift = np.arange(copies, dtype=np.int64)[:, None] * parent.size
    return np.where(parent >= 0, parent + shift, -1).reshape(-1)


def tile_forest(forest: ForestLayout | None, copies: int) -> ForestLayout | None:
    """*forest* laid out for the disjoint union of ``copies`` copies of its
    graph (:func:`tile_parents`; copy ``c`` also holds forward edges
    ``[c·m, (c+1)·m)``).
    """
    if forest is None or copies == 1:
        return forest
    n = forest.parent.size
    m = n - forest.roots.size  # a forest has one edge per non-root
    copy = np.arange(copies, dtype=np.int64)[:, None]
    return ForestLayout(
        parent=tile_parents(forest.parent, copies),
        depth=np.tile(forest.depth, copies),
        link=(forest.link + copy * m).reshape(-1),
        roots=(forest.roots + copy * n).reshape(-1),
    )


def cfb_fast(
    graph: StaticGraph,
    draws: Draws | np.random.Generator,
    d_hat: int,
    active: np.ndarray,
    edge_mask: np.ndarray | None = None,
    forest: ForestLayout | None = None,
) -> np.ndarray:
    """One CNTRLFAIRBIPART call; returns the joined mask.

    Parameters
    ----------
    d_hat:
        The ``D̂`` (= γ) round budget for both flooding phases.
    active:
        Participating vertices.
    edge_mask:
        Usable edges (aligned with ``graph.edge_src``); automatically
        intersected with "both endpoints active".
    forest:
        *graph*'s :attr:`~repro.graphs.graph.StaticGraph.forest_layout`
        (tiled, on a union); lets the call skip the flood when the
        rooting proves its outcome.
    """
    draws = as_draws(draws)
    if forest is not None:
        joined = _forest_call(graph, forest, draws, d_hat, active, edge_mask)
        if joined is not None:
            return joined
    n = graph.n
    es, ed = graph.edge_src, graph.edge_dst
    emask = active[es] & active[ed]
    if edge_mask is not None:
        emask = emask & edge_mask
    ces, ced = es[emask], ed[emask]
    ids = np.arange(n, dtype=np.int64)

    # -- leader election: max-ID flooding until settled or D̂ rounds -------- #
    with phase("cfb.election"):
        leader = np.where(active, ids, np.int64(-1))
        # Round in which each node's maximum last grew: its BFS level once
        # the flood has settled.
        level = np.where(active, np.int64(0), np.int64(-1))
        rounds = 0
        while True:
            sent = leader[ces]
            offer = sent > leader[ced]
            settled = not offer.any()
            if settled or rounds == d_hat:
                break
            rounds += 1
            dst = ced[offer]
            np.maximum.at(leader, dst, sent[offer])
            level[dst] = rounds
        is_leader = active & (leader == ids)
    prof = current_profiler()
    if prof is not None:
        prof.count("cfb.flood_rounds", rounds)
        if not settled:
            prof.count("cfb.bfs_fallback")

    # -- every node draws a bit; only self-elected leaders' bits are used --- #
    bits = draws.integers(0, 2, size=n, dtype=np.int64)

    # -- parity BFS from leaders, origin-checked ----------------------------- #
    with phase("cfb.bfs"):
        if not settled:
            level = np.where(is_leader, np.int64(0), np.int64(-1))
            for _ in range(d_hat):
                offer = (
                    (level[ces] >= 0)
                    & (level[ced] < 0)
                    & (leader[ces] == leader[ced])
                )
                if not offer.any():
                    break
                level[ced[offer]] = level[ces[offer]] + 1

    reached = active & (level >= 0)
    b_leader = bits[np.where(leader >= 0, leader, 0)]
    joined = reached & ((level + b_leader) % 2 == 0)

    # Lemma 7 special case: a leader with no usable neighbors always joins.
    has_peer = np.zeros(n, dtype=bool)
    has_peer[ced] = True
    joined |= is_leader & ~has_peer
    return joined


def _forest_call(
    graph: StaticGraph,
    forest: ForestLayout,
    draws: Draws,
    d_hat: int,
    active: np.ndarray,
    edge_mask: np.ndarray | None,
) -> np.ndarray | None:
    """The settled flood's membership read off the rooting, or ``None``
    (nothing drawn) when the rooting cannot prove the flood settles."""
    n, m = graph.n, graph.m
    if edge_mask is not None and not np.array_equal(edge_mask[:m], edge_mask[m:]):
        return None
    with phase("cfb.forest"):
        parent, depth = forest.parent, forest.depth
        # usable parent links; a root's entries (parent -1, link 0) read
        # arbitrary slots and are cleared
        up = active & active[parent]
        if edge_mask is not None and m:
            up &= edge_mask[forest.link]
        up[forest.roots] = False
        kids = np.flatnonzero(up)
        # Lemma 7: an active node with no usable edge always joins
        joined = active.copy()
        if kids.size:
            # pointer jumping along usable links; a node whose top has
            # no usable link up is done and leaves the pending set
            top = np.arange(n)
            top[kids] = parent[kids]
            pending = kids[up[top[kids]]]
            while pending.size:
                nxt = top[top[pending]]
                top[pending] = nxt
                pending = pending[up[nxt]]
            tk = top[kids]
            lead = top  # reused: a component's largest ID, at its top
            lead[:] = np.arange(n)
            np.maximum.at(lead, tk, kids)
            lt = lead[tk]
            del top, lead, pending
            dt = depth[tk]
            dl = depth[lt]
            dk = depth[kids]
            # ecc(leader) <= dist(leader, top) + height(top)
            if int((dl + dk - 2 * dt).max()) > d_hat:
                return None
        bits = draws.integers(0, 2, size=n, dtype=np.int64)
        if kids.size:
            # dist(v, leader) is depth(v) + depth(leader) mod 2 in a tree
            key = dl ^ bits[lt]
            joined[kids] = ((dk ^ key) & 1) == 0
            joined[tk] = ((dt ^ key) & 1) == 0
    prof = current_profiler()
    if prof is not None:
        prof.count("cfb.forest_calls")
    return joined
