"""Result-cache unit tests plus end-to-end hit/miss accounting."""

import numpy as np

from repro.analysis.fairness import JoinEstimate
from repro.obs.metrics import MetricsRegistry
from repro.service import Estimator, ResultCache, cache_key


def est(trials=4):
    return JoinEstimate(counts=np.array([0, trials // 2, trials]), trials=trials)


class TestCacheKey:
    def test_distinct_inputs_distinct_keys(self):
        base = cache_key("h", "luby_fast", 0, 100, "exact")
        assert base != cache_key("g", "luby_fast", 0, 100, "exact")
        assert base != cache_key("h", "fair_tree_fast", 0, 100, "exact")
        assert base != cache_key("h", "luby_fast", 1, 100, "exact")
        assert base != cache_key("h", "luby_fast", 0, 101, "exact")
        assert base != cache_key("h", "luby_fast", 0, 100, "vectorized")

    def test_seedless_is_uncacheable(self):
        assert cache_key("h", "luby_fast", None, 100, "exact") is None


class TestResultCache:
    def test_get_put(self):
        c = ResultCache(capacity=4)
        assert c.get("k") is None
        c.put("k", est())
        assert c.get("k").trials == 4

    def test_lru_eviction(self):
        registry = MetricsRegistry()
        c = ResultCache(capacity=2, registry=registry)
        c.put("a", est(1))
        c.put("b", est(2))
        c.get("a")  # refresh a → b is now least-recent
        c.put("c", est(3))
        assert c.get("b") is None
        assert c.get("a") is not None and c.get("c") is not None
        assert registry.counter("service_cache_evictions_total").value == 1

    def test_counters_track_hits_and_misses(self):
        registry = MetricsRegistry()
        c = ResultCache(capacity=4, registry=registry)
        c.get("k")
        c.put("k", est())
        c.get("k")
        assert registry.counter("service_cache_misses_total").value == 1
        assert registry.counter("service_cache_hits_total").value == 1

    def test_capacity_zero_disables(self):
        c = ResultCache(capacity=0)
        c.put("k", est())
        assert c.get("k") is None


class TestEvidencePlane:
    def _gauge(self, registry):
        return registry.gauge("service_evidence_trials_resident").value

    def test_lru_eviction_keeps_resident_gauge_consistent(self):
        registry = MetricsRegistry()
        c = ResultCache(capacity=2, registry=registry)
        c.add_evidence("g1", "luby", est(4))
        c.add_evidence("g2", "luby", est(8))
        assert self._gauge(registry) == 12
        c.evidence("g1", "luby")  # refresh g1 → g2 is least-recent
        c.add_evidence("g3", "luby", est(16))
        assert c.evidence_trials("g2", "luby") == 0
        assert c.evidence_trials("g1", "luby") == 4
        # The gauge tracks exactly the trials still resident.
        assert self._gauge(registry) == 4 + 16
        assert registry.counter("service_cache_evictions_total").value == 1

    def test_purge_selective_and_full(self):
        registry = MetricsRegistry()
        c = ResultCache(capacity=8, registry=registry)
        c.add_evidence("g1", "luby", est(4))
        c.add_evidence("g1", "fair", est(4))
        c.add_evidence("g2", "luby", est(4))
        assert c.purge_evidence(graph_hash="g1", algorithm_key="luby") == 1
        assert self._gauge(registry) == 8
        assert c.purge_evidence(graph_hash="g2") == 1
        assert c.purge_evidence() == 1  # everything left
        assert self._gauge(registry) == 0
        assert c.purge_evidence() == 0  # idempotent on empty plane

    def test_purged_tags_do_not_block_redeposit(self):
        c = ResultCache(capacity=8)
        c.add_evidence("g", "luby", est(4), tag=("seed", 7))
        c.purge_evidence(graph_hash="g")
        # The purge dropped the dedup tag with the entry, so the same
        # deterministic contribution may legitimately come back.
        c.add_evidence("g", "luby", est(4), tag=("seed", 7))
        assert c.evidence_trials("g", "luby") == 4

    def test_same_tag_does_not_double_count(self):
        registry = MetricsRegistry()
        c = ResultCache(capacity=8, registry=registry)
        c.add_evidence("g", "luby", est(4), tag=("seed", 7))
        c.add_evidence("g", "luby", est(4), tag=("seed", 7))
        assert c.evidence_trials("g", "luby") == 4
        assert self._gauge(registry) == 4

    def test_evidence_entries_describes_pools(self):
        c = ResultCache(capacity=8)
        c.add_evidence("g", "luby", est(16), tag="t1")
        rows = c.evidence_entries()
        assert len(rows) == 1
        row = rows[0]
        assert row["graph_hash"] == "g" and row["algorithm"] == "luby"
        assert row["trials"] == 16 and row["nodes"] == 3
        assert row["tags"] == 1
        assert row["bytes"] > 0 and row["age_s"] >= 0
        # Wilson half-width at 95% for p=0.5, n=16 is ≈ 0.22.
        assert 0.2 < row["achievable_halfwidth"] < 0.3


class TestEstimatorCaching:
    def test_repeat_request_served_from_cache(self):
        with Estimator(n_jobs=1) as svc:
            first = svc.estimate(
                graph_spec="tree:40:3", algorithm="luby_fast", trials=64, seed=3
            )
            again = svc.estimate(
                graph_spec="tree:40:3", algorithm="luby_fast", trials=64, seed=3
            )
        total = svc.registry.counter
        assert not first.cached
        assert again.cached
        assert again.trials_run == 0
        assert np.array_equal(again.estimate.counts, first.estimate.counts)
        assert total("service_cache_hits_total").value == 1
        assert total("service_cache_misses_total").value >= 1
        # No new trials were executed for the repeat.
        assert total("service_trials_executed_total").value == 64

    def test_different_seed_misses(self):
        with Estimator(n_jobs=1) as svc:
            svc.estimate(graph_spec="path:12", algorithm="luby_fast", trials=32, seed=0)
            other = svc.estimate(
                graph_spec="path:12", algorithm="luby_fast", trials=32, seed=1
            )
        assert not other.cached

    def test_seedless_request_bypasses_cache(self):
        with Estimator(n_jobs=1, cache_size=8) as svc:
            a = svc.estimate(
                graph_spec="path:12", algorithm="luby_fast", trials=32, seed=None
            )
            b = svc.estimate(
                graph_spec="path:12", algorithm="luby_fast", trials=32, seed=None
            )
        total = svc.registry.counter
        assert not a.cached and not b.cached
        assert total("service_cache_hits_total").value == 0
        assert total("service_trials_executed_total").value == 64
