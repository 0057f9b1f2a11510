"""Deterministic randomness management for simulations.

Every node in a simulated network owns an independent ``numpy`` generator
spawned from a single root ``SeedSequence``.  This gives three properties
the evaluation harness relies on:

* **Reproducibility** — a run is a pure function of ``(graph, seed)``.
* **Independence** — per-node streams are statistically independent, which
  is what the synchronous model assumes of local coins.
* **Parallel safety** — trial seeds spawned with :func:`spawn_trial_seeds`
  can be handed to worker processes without stream collisions, the standard
  ``SeedSequence.spawn`` idiom for process pools.

The fast engines draw through a :class:`Draws` source instead of a bare
generator, so one kernel serves a lone trial and a disjoint union of
``copies`` equal-sized trials alike.  A source takes the calls a
``numpy`` generator takes, sized for the whole union, plus ``who``: a
loop whose length depends on the data names the copies that still have
work.  :class:`UnionDraws` is one generator for the whole union (the
vectorized stream: it ignores ``who`` and draws for every copy);
:class:`TrialDraws` is one generator per copy, so copy ``c`` draws exactly
what its lone trial would draw, in the same order, and nothing after that
trial would have stopped.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

__all__ = [
    "as_seed_sequence",
    "spawn_node_rngs",
    "spawn_trial_seeds",
    "generator_from",
    "Draws",
    "UnionDraws",
    "TrialDraws",
    "as_draws",
]

SeedLike = int | np.random.SeedSequence | np.random.Generator | None


class Draws(Protocol):
    """Random values for a union of ``copies`` equal-sized copies.

    ``size`` counts the whole union's values; copy ``c`` owns the
    ``size // copies`` of them at ``[c*k, (c+1)*k)``.  ``who`` is a
    boolean mask over the copies that draw; a source that honours it
    leaves the other copies' values at 0.
    """

    #: Copies in the union.
    copies: int

    def integers(
        self,
        low: int,
        high: int | np.ndarray,
        size: int,
        dtype: type = np.int64,
        who: np.ndarray | None = None,
    ) -> np.ndarray:
        """Values in ``[low, high)``; *high* is a scalar or one bound per
        value."""
        ...

    def random(self, size: int, who: np.ndarray | None = None) -> np.ndarray:
        """float64 uniforms in ``[0, 1)``."""
        ...


class UnionDraws:
    """One generator for a whole union: every call forwards to it, for
    every copy, whatever ``who`` says."""

    def __init__(self, rng: np.random.Generator, copies: int = 1) -> None:
        self.rng = rng
        self.copies = copies

    def integers(self, low, high, size, dtype=np.int64, who=None) -> np.ndarray:
        return self.rng.integers(low, high, size=size, dtype=dtype)

    def random(self, size: int, who: np.ndarray | None = None) -> np.ndarray:
        return self.rng.random(size)


class TrialDraws:
    """One generator per copy: copy ``c`` draws from ``rngs[c]`` only,
    and only while ``who`` names it."""

    def __init__(self, rngs: Sequence[np.random.Generator]) -> None:
        self.rngs = list(rngs)
        self.copies = len(self.rngs)

    def _each(self, draw, size: int, who: np.ndarray | None, dtype) -> np.ndarray:
        k = size // self.copies
        if self.copies == 1 and (who is None or who[0]):
            return draw(self.rngs[0], slice(0, k), k)
        out = np.zeros(size, dtype=dtype)
        for c in range(self.copies) if who is None else np.flatnonzero(who):
            part = slice(c * k, (c + 1) * k)
            out[part] = draw(self.rngs[c], part, k)
        return out

    def integers(self, low, high, size, dtype=np.int64, who=None) -> np.ndarray:
        if np.ndim(high):
            return self._each(
                lambda rng, part, k: rng.integers(low, high[part], size=k, dtype=dtype),
                size, who, dtype,
            )
        return self._each(
            lambda rng, part, k: rng.integers(low, high, size=k, dtype=dtype),
            size, who, dtype,
        )

    def random(self, size: int, who: np.ndarray | None = None) -> np.ndarray:
        return self._each(lambda rng, part, k: rng.random(k), size, who, np.float64)


def as_draws(source: "Draws | np.random.Generator") -> Draws:
    """*source* as a :class:`Draws`; a bare generator draws for its whole
    graph as one copy."""
    if isinstance(source, np.random.Generator):
        return UnionDraws(source)
    return source


def as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Normalize *seed* to a ``SeedSequence``.

    Accepts ``None`` (fresh entropy), an integer, an existing
    ``SeedSequence``, or a ``Generator`` (a child sequence is derived from
    it so the caller's stream is not consumed in a surprising way).
    """
    if seed is None or isinstance(seed, int):
        return np.random.SeedSequence(seed)
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        # Derive a child seed from the generator's stream.
        return np.random.SeedSequence(int(seed.integers(0, 2**63)))
    raise TypeError(f"cannot interpret {type(seed)!r} as a seed")


def generator_from(seed: SeedLike) -> np.random.Generator:
    """Return a ``Generator``; passes an existing ``Generator`` through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(as_seed_sequence(seed))


def spawn_node_rngs(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Spawn *n* independent per-node generators from a single seed."""
    root = as_seed_sequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(n)]


def spawn_trial_seeds(seed: SeedLike, trials: int) -> list[np.random.SeedSequence]:
    """Spawn one independent ``SeedSequence`` per Monte-Carlo trial."""
    root = as_seed_sequence(seed)
    return root.spawn(trials)


def random_unique_ids(
    rng: np.random.Generator, n: int, id_space_exponent: int = 3
) -> np.ndarray:
    """Draw ``n`` distinct IDs uniformly from ``[0, n**id_space_exponent)``.

    The model (Section III) assumes unique IDs from a range polynomial in
    ``n``; Cole–Vishkin's worst-case bound needs IDs in ``n**Theta(1)``.
    Collisions are resolved by redrawing, which terminates quickly because
    the space is polynomially larger than ``n``.
    """
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    space = max(n, 2) ** id_space_exponent
    ids = rng.choice(space, size=n, replace=False) if space <= 2**24 else None
    if ids is None:
        seen: set[int] = set()
        out = np.empty(n, dtype=np.int64)
        filled = 0
        while filled < n:
            draw = int(rng.integers(0, space))
            if draw not in seen:
                seen.add(draw)
                out[filled] = draw
                filled += 1
        ids = out
    return ids.astype(np.int64)


def sequence_entropy(seeds: Sequence[np.random.SeedSequence]) -> list[int]:
    """Return a stable fingerprint for a list of seed sequences (testing)."""
    return [int(np.random.default_rng(s).integers(0, 2**31)) for s in seeds]
