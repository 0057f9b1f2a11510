"""Shared vectorized primitives for the fast engines (substrate S14).

Per the HPC guides, every per-round operation is expressed as a scatter
over the symmetric edge list (``np.maximum.at`` / ``np.bincount``) instead
of per-vertex Python loops — one ``O(m)`` numpy kernel per round instead
of ``O(n)`` interpreter iterations.

All helpers take the symmetric edge arrays ``es → ed`` (every undirected
edge appears in both directions) and an optional boolean ``edge_mask``
aligned with them, so staged algorithms can restrict communication to
"uncut" or "both endpoints active" edges without rebuilding structure.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..graphs.graph import StaticGraph
from ..obs.profile import current_profiler
from ..runtime.rng import Draws, as_draws

__all__ = [
    "neighbor_any",
    "neighbor_max",
    "neighbor_count",
    "edge_both",
    "copies_with",
    "priority_keys",
    "MAX_VERTICES",
    "UnionSweep",
]


def neighbor_any(
    mask: np.ndarray,
    es: np.ndarray,
    ed: np.ndarray,
    n: int,
    edge_mask: np.ndarray | None = None,
) -> np.ndarray:
    """``out[v] = any(mask[u] for u ~ v)`` over (optionally masked) edges."""
    prof = current_profiler()
    if prof is not None:
        prof.count("engine.neighbor_any")
    out = np.zeros(n, dtype=bool)
    if es.size == 0:
        return out
    hit = mask[es]
    if edge_mask is not None:
        hit = hit & edge_mask
    out[ed[hit]] = True
    return out


def neighbor_max(
    values: np.ndarray,
    es: np.ndarray,
    ed: np.ndarray,
    n: int,
    edge_mask: np.ndarray | None = None,
    fill: int = -1,
) -> np.ndarray:
    """``out[v] = max(values[u] for u ~ v)`` (``fill`` when no neighbor)."""
    prof = current_profiler()
    if prof is not None:
        prof.count("engine.neighbor_max")
    out = np.full(n, fill, dtype=values.dtype)
    if es.size == 0:
        return out
    if edge_mask is not None:
        np.maximum.at(out, ed[edge_mask], values[es[edge_mask]])
    else:
        np.maximum.at(out, ed, values[es])
    return out


def neighbor_count(
    mask: np.ndarray,
    es: np.ndarray,
    ed: np.ndarray,
    n: int,
    edge_mask: np.ndarray | None = None,
) -> np.ndarray:
    """``out[v] = #{u ~ v : mask[u]}`` over (optionally masked) edges."""
    prof = current_profiler()
    if prof is not None:
        prof.count("engine.neighbor_count")
    if es.size == 0:
        return np.zeros(n, dtype=np.int64)
    hit = mask[es]
    if edge_mask is not None:
        hit = hit & edge_mask
    return np.bincount(ed[hit], minlength=n).astype(np.int64)


def edge_both(
    mask: np.ndarray, es: np.ndarray, ed: np.ndarray
) -> np.ndarray:
    """Edge mask selecting edges with *both* endpoints in ``mask``."""
    if es.size == 0:
        return np.zeros(0, dtype=bool)
    return mask[es] & mask[ed]


def copies_with(mask: np.ndarray, copies: int) -> np.ndarray:
    """Which of a union's ``copies`` equal-sized copies hold a ``mask``
    vertex: the copies that still have work, and so still draw."""
    return mask.reshape(copies, mask.size // copies).any(axis=1)


#: Bits reserved for the random part of a tie-broken priority key.
PRIORITY_BITS = 38

#: Largest vertex count whose IDs fit beside the random part of a key.
MAX_VERTICES = 1 << 24

#: ``sweep(union, draws) -> (membership, rounds)`` over a disjoint union
#: of copies of one base graph, as a batchable engine's
#: ``union_sweep(graph)`` returns it (see :mod:`repro.fast.batched`).
#: ``rounds`` holds each copy's iteration count, or is ``None`` for an
#: engine that reports none.
UnionSweep = Callable[
    [StaticGraph, Draws], tuple[np.ndarray, "np.ndarray | None"]
]


def priority_keys(
    draws: Draws | np.random.Generator,
    n: int,
    who: np.ndarray | None = None,
) -> np.ndarray:
    """Random priorities with ID tie-break packed into one int64 key.

    ``key = (random << ceil(log2 n)) | id`` reproduces the faithful
    engine's lexicographic ``(priority, id)`` comparison in a single
    vectorized ``>``; supports ``n`` up to :data:`MAX_VERTICES` (``2^24``).
    On a union the IDs are union-wide, which keeps every copy's order.
    """
    if n > MAX_VERTICES:
        raise ValueError("fast engine supports n <= 2^24")
    draws = as_draws(draws)
    id_bits = max(1, int(n - 1).bit_length())
    keys = draws.integers(0, 1 << PRIORITY_BITS, size=n, dtype=np.int64, who=who)
    keys <<= id_bits
    keys |= np.arange(n, dtype=np.int64)
    return keys
