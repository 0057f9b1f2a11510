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
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import StaticGraph
from ..obs.profile import current_profiler, phase

__all__ = ["cfb_fast"]


def cfb_fast(
    graph: StaticGraph,
    rng: np.random.Generator,
    d_hat: int,
    active: np.ndarray,
    edge_mask: np.ndarray | None = None,
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
    """
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
    bits = rng.integers(0, 2, size=n, dtype=np.int64)

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
