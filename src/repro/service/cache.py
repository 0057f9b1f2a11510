"""Content-addressed cache: exact-key results plus accumulating evidence.

Two planes share one LRU budget discipline:

* **Exact plane** (legacy, fixed-budget requests) — keys are ``(graph
  content hash, algorithm+params, seed, trials, mode)``: everything that
  determines the count vector bit-for-bit.  A repeated identical request
  is served verbatim.  Requests with ``seed=None`` never touch this
  plane.
* **Evidence plane** (v2, precision-targeted requests) — keyed by
  ``(graph content hash, algorithm+params)`` only.  Every executed trial
  chunk *deposits* its counts; a precision request *reads* the pooled
  evidence as a prior, so its confidence interval starts partially (or
  fully) closed and warm requests finish in a fraction of a cold
  budget.  Deposits carry an optional dedup ``tag`` (the exact-plane
  cache key, or a seeded-run fingerprint) so re-running a deterministic
  seeded request can never double-count its correlated samples.

Hit/miss/eviction/deposit totals are ``service_*_total`` counters in
the registry the cache is built with (the service's own).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..analysis.fairness import JoinEstimate, z_for_confidence
from ..obs.logging import get_logger
from ..obs.metrics import AGE_BUCKETS, MetricsRegistry

__all__ = ["ResultCache", "cache_key", "evidence_key"]

_log = get_logger("repro.service.cache")


def cache_key(
    graph_hash: str,
    algorithm_key: str,
    seed: int | None,
    trials: int,
    mode: str,
) -> tuple | None:
    """The exact-plane key for a resolved request, or ``None`` if
    uncacheable."""
    if seed is None:
        return None
    return (graph_hash, algorithm_key, int(seed), int(trials), mode)


def evidence_key(graph_hash: str, algorithm_key: str) -> tuple:
    """The evidence-plane key: graph content and algorithm identity only."""
    return (graph_hash, algorithm_key)


@dataclass
class _Evidence:
    """Accumulated join counts for one ``(graph, algorithm)`` pair."""

    counts: np.ndarray
    trials: int = 0
    inserted_at: float = 0.0
    tags: set = field(default_factory=set)

    def estimate(self) -> JoinEstimate:
        return JoinEstimate(counts=self.counts.copy(), trials=self.trials)


class ResultCache:
    """Thread-safe LRU over both cache planes.

    ``capacity`` bounds each plane independently (an exact entry and an
    evidence entry are different granularities; sharing one budget would
    let high-cardinality exact keys evict the far more valuable pooled
    evidence).  ``capacity=0`` disables caching entirely (every lookup
    is a miss and nothing is stored), which the benchmarks use to time
    pure execution.
    """

    def __init__(
        self,
        capacity: int = 128,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        if registry is None:
            registry = MetricsRegistry()
        self._c_hits = registry.counter(
            "service_cache_hits_total",
            "Estimation-service lifetime total: cache hits",
        ).labels()
        self._c_misses = registry.counter(
            "service_cache_misses_total",
            "Estimation-service lifetime total: cache misses",
        ).labels()
        self._c_evictions = registry.counter(
            "service_cache_evictions_total",
            "Estimation-service lifetime total: cache evictions",
        ).labels()
        self._c_evidence_hits = registry.counter(
            "service_evidence_hits_total",
            "Estimation-service lifetime total: evidence hits",
        ).labels()
        self._c_evidence_misses = registry.counter(
            "service_evidence_misses_total",
            "Estimation-service lifetime total: evidence misses",
        ).labels()
        self._c_deposits = registry.counter(
            "service_evidence_deposits_total",
            "Estimation-service lifetime total: evidence deposits",
        ).labels()
        self._c_reused = registry.counter(
            "service_evidence_trials_reused_total",
            "Estimation-service lifetime total: evidence trials reused",
        ).labels()
        self._h_age = registry.histogram(
            "service_cache_age_seconds",
            "Age of the cached entry at the moment it served a hit",
            buckets=AGE_BUCKETS,
        )
        self._g_evidence_trials = registry.gauge(
            "service_evidence_trials_resident",
            "Total pooled trials currently held in the evidence store",
        )
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[JoinEstimate, float]] = (
            OrderedDict()
        )
        self._evidence: OrderedDict[tuple, _Evidence] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #
    # exact plane (legacy fixed-budget requests)
    # ------------------------------------------------------------------ #
    def get(self, key: tuple | None) -> JoinEstimate | None:
        """Look *key* up, recording a hit or miss; ``None`` keys miss.

        Hits additionally observe the entry's age (time since insertion)
        into the ``service_cache_age_seconds`` histogram.
        """
        if key is None:
            self._c_misses.inc()
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            self._c_misses.inc()
            return None
        est, inserted_at = entry
        age = time.monotonic() - inserted_at
        self._h_age.observe(age)
        self._c_hits.inc()
        _log.debug("cache_hit", age_s=round(age, 6))
        return est

    def put(self, key: tuple | None, estimate: JoinEstimate) -> None:
        """Insert, evicting least-recently-used entries beyond capacity."""
        if key is None or self.capacity == 0:
            return
        evictions = 0
        with self._lock:
            self._entries[key] = (estimate, time.monotonic())
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evictions += 1
        if evictions:
            self._c_evictions.inc(evictions)
            _log.debug("cache_evicted", evictions=evictions)

    # ------------------------------------------------------------------ #
    # evidence plane (v2 precision-targeted requests)
    # ------------------------------------------------------------------ #
    def evidence(
        self, graph_hash: str, algorithm_key: str
    ) -> JoinEstimate | None:
        """Pooled evidence for a pair, or ``None``; counts hits/misses."""
        key = evidence_key(graph_hash, algorithm_key)
        with self._lock:
            entry = self._evidence.get(key)
            if entry is not None and entry.trials > 0:
                self._evidence.move_to_end(key)
                est = entry.estimate()
                age = time.monotonic() - entry.inserted_at
            else:
                est = None
        if est is None:
            self._c_evidence_misses.inc()
            return None
        self._h_age.observe(age)
        self._c_evidence_hits.inc()
        self._c_reused.inc(est.trials)
        _log.debug(
            "evidence_hit", trials=est.trials, algorithm=algorithm_key
        )
        return est

    def add_evidence(
        self,
        graph_hash: str,
        algorithm_key: str,
        estimate: JoinEstimate,
        tag: object | None = None,
    ) -> None:
        """Merge *estimate*'s counts into the pair's pooled evidence.

        A non-``None`` *tag* identifies a deterministic contribution
        (e.g. a seeded fixed-budget run): depositing the same tag twice
        is a no-op, so repeat seeded traffic cannot inflate the pooled
        trial count with correlated samples.
        """
        if self.capacity == 0 or estimate.trials <= 0:
            return
        key = evidence_key(graph_hash, algorithm_key)
        evictions = 0
        with self._lock:
            entry = self._evidence.get(key)
            if entry is None:
                entry = _Evidence(
                    counts=np.zeros_like(np.asarray(estimate.counts)),
                    inserted_at=time.monotonic(),
                )
                self._evidence[key] = entry
            if tag is not None:
                if tag in entry.tags:
                    return
                entry.tags.add(tag)
            if entry.counts.shape != estimate.counts.shape:
                # A different graph collapsed onto this hash is impossible
                # (content-addressed); shape drift means caller error.
                raise ValueError("evidence counts cover a different node set")
            entry.counts += estimate.counts
            entry.trials += estimate.trials
            self._evidence.move_to_end(key)
            while len(self._evidence) > self.capacity:
                self._evidence.popitem(last=False)
                evictions += 1
            resident = sum(e.trials for e in self._evidence.values())
        self._g_evidence_trials.set(resident)
        self._c_deposits.inc()
        if evictions:
            self._c_evictions.inc(evictions)
            _log.debug("evidence_evicted", evictions=evictions)

    def evidence_trials(self, graph_hash: str, algorithm_key: str) -> int:
        """Pooled trial count for a pair (0 when absent); no counters."""
        with self._lock:
            entry = self._evidence.get(evidence_key(graph_hash, algorithm_key))
            return entry.trials if entry is not None else 0

    def evidence_entries(self, confidence: float = 0.95) -> list[dict]:
        """Introspection snapshot of the evidence plane (LRU order,
        coldest first); does not touch hit/miss counters or recency.

        Each row reports the pair identity, pooled trials, node count,
        resident bytes, seconds since first deposit, dedup-tag count,
        and the half-width the pooled evidence can already achieve at
        the given *confidence* — i.e. what a precision request would
        start from.  Backs ``repro evidence ls``/``show``.
        """
        z = z_for_confidence(confidence)
        with self._lock:
            items = [
                (key, entry.estimate(), entry) for key, entry in self._evidence.items()
            ]
        now = time.monotonic()
        rows = []
        for (graph_hash, algorithm_key), est, entry in items:
            rows.append(
                {
                    "graph_hash": graph_hash,
                    "algorithm": algorithm_key,
                    "trials": entry.trials,
                    "nodes": int(est.counts.shape[0]),
                    "bytes": int(entry.counts.nbytes),
                    "age_s": now - entry.inserted_at,
                    "tags": len(entry.tags),
                    "achievable_halfwidth": float(est.max_halfwidth(z)),
                }
            )
        return rows

    def purge_evidence(
        self,
        graph_hash: str | None = None,
        algorithm_key: str | None = None,
    ) -> int:
        """Drop matching evidence entries; returns how many were purged.

        ``None`` filters match everything, so ``purge_evidence()`` empties
        the plane.  An entry's dedup tags go with it — a purge is a
        statement that the pooled samples are unwanted, so later seeded
        re-runs may legitimately re-deposit.
        """
        with self._lock:
            victims = [
                key
                for key in self._evidence
                if (graph_hash is None or key[0] == graph_hash)
                and (algorithm_key is None or key[1] == algorithm_key)
            ]
            for key in victims:
                del self._evidence[key]
            resident = sum(e.trials for e in self._evidence.values())
        self._g_evidence_trials.set(resident)
        if victims:
            self._c_evictions.inc(len(victims))
            _log.debug("evidence_purged", purged=len(victims))
        return len(victims)

    def clear(self) -> None:
        """Drop every entry in both planes (counters are preserved)."""
        with self._lock:
            self._entries.clear()
            self._evidence.clear()
        self._g_evidence_trials.set(0)
