"""The benchmark's own arithmetic: percentiles, span coverage, latencies.

Everything here is pure and small so ``perfbench/tests`` can pin it down:

* percentiles use the nearest-rank definition, so "samples beyond the
  percentile" is an exact count rather than an interpolation artefact;
* a timing is reported as its median plus the highest percentile that
  still has at least :data:`MIN_BEYOND` samples beyond it;
* a span's self time is its duration minus the union of the parts of it
  that its children cover (children may nest and overlap);
* open-loop latency runs from when a request was *due*, so a stalled
  generator cannot hide its own stall.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: A tail percentile is only reported when at least this many samples
#: lie beyond it.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of *values* (``0 < q <= 100``)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def _rank(n: int, q: float) -> int:
    # The epsilon keeps q * n / 100 from rounding up past an exact integer
    # (99.9 * 10000 / 100 is 9990.000000000002 in floating point).
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def beyond(n: int, q: float) -> int:
    """How many of *n* samples lie strictly beyond the nearest-rank ``q``."""
    return n - _rank(n, q)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least :data:`MIN_BEYOND` samples
    beyond it among *n*, or ``None`` when even p75 has too few."""
    for q in TAIL_LADDER:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def summarize(values: Sequence[float]) -> dict:
    """Median plus the highest well-supported tail percentile.

    With too few samples for any ladder percentile the tail falls back
    to the maximum (``tail_q`` = 100) so a value is always present; the
    sample count beside it says how much it can be trusted.
    """
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_q": None}
    q = tail_percentile(n)
    tail = percentile(values, q) if q is not None else max(values)
    return {
        "n": n,
        "p50": float(statistics.median(values)),
        "tail": float(tail),
        "tail_q": q if q is not None else 100.0,
    }


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def covered(
    span: tuple[float, float], children: Iterable[tuple[float, float]]
) -> float:
    """Length of *span* covered by the union of *children* (clipped to it)."""
    lo, hi = span
    return union_length(
        (max(lo, s), min(hi, e)) for s, e in children if e > lo and s < hi
    )


def self_time(
    span: tuple[float, float], children: Iterable[tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its children cover."""
    return (span[1] - span[0]) - covered(span, children)


def due_latencies(
    records: Iterable[tuple[float, float, float | None]],
) -> tuple[list[float], list[float]]:
    """Latency from due time and generator lateness for open-loop records.

    Each record is ``(due, sent, replied)`` on one clock; ``replied`` is
    ``None`` for a request that got no reply (it has no latency, and
    counts as failed elsewhere).  Returns ``(latencies, lateness)``:
    ``replied - due`` for answered requests and ``sent - due`` for every
    request.
    """
    latencies: list[float] = []
    lateness: list[float] = []
    for due, sent, replied in records:
        lateness.append(max(0.0, sent - due))
        if replied is not None:
            latencies.append(replied - due)
    return latencies, lateness
