"""Unit tests for the metrics registry (counters/gauges/histograms)."""

import threading

import pytest

from repro.obs.metrics import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    get_registry,
    use_registry,
)


class TestCounter:
    def test_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_reset(self):
        c = Counter()
        c.inc(3)
        c.reset()
        assert c.value == 0.0

    def test_thread_safety(self):
        c = Counter()

        def bump():
            for _ in range(2000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000.0


class TestGauge:
    def test_up_and_down(self):
        g = Gauge()
        g.set(5)
        g.inc(2)
        g.dec(4)
        assert g.value == 3.0


class TestHistogram:
    def test_le_semantics(self):
        # bounds are inclusive upper bounds (Prometheus ``le``)
        h = Histogram(buckets=(1, 2, 4))
        for v in (1, 2, 2, 3, 100):
            h.observe(v)
        cum = dict(h.cumulative_buckets())
        assert cum[1.0] == 1
        assert cum[2.0] == 3
        assert cum[4.0] == 4
        assert cum[float("inf")] == 5
        assert h.count == 5
        assert h.sum == 108.0

    def test_bounds_sorted_and_distinct(self):
        h = Histogram(buckets=(4, 1, 2))
        assert h.bounds == (1.0, 2.0, 4.0)
        with pytest.raises(ValueError):
            Histogram(buckets=(1, 1))
        with pytest.raises(ValueError):
            Histogram(buckets=())

    def test_snapshot_value(self):
        h = Histogram(buckets=(1, 2))
        h.observe(1.5)
        snap = h.snapshot_value()
        assert snap["count"] == 1
        assert snap["buckets"] == {"1": 0, "2": 1, "+Inf": 1}


class TestMetricFamily:
    def test_labeled_children(self):
        reg = MetricsRegistry()
        fam = reg.counter("reqs", labelnames=("algorithm",))
        fam.labels(algorithm="a").inc()
        fam.labels(algorithm="a").inc()
        fam.labels(algorithm="b").inc(5)
        values = {
            labels["algorithm"]: m.value for labels, m in fam.children()
        }
        assert values == {"a": 2.0, "b": 5.0}

    def test_wrong_labels_rejected(self):
        reg = MetricsRegistry()
        fam = reg.counter("reqs2", labelnames=("algorithm",))
        with pytest.raises(ValueError):
            fam.labels(other="x")
        with pytest.raises(ValueError):
            fam.inc()  # labeled family has no solo child

    def test_unlabeled_delegation(self):
        reg = MetricsRegistry()
        reg.counter("plain").inc(2)
        assert reg.counter("plain").value == 2.0


class TestRegistry:
    def test_get_or_create_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("x", "help text")
        b = reg.counter("x")
        assert a is b

    def test_redeclare_kind_rejected(self):
        reg = MetricsRegistry()
        reg.counter("y")
        with pytest.raises(ValueError):
            reg.gauge("y")
        reg.histogram("z", buckets=COUNT_BUCKETS)
        with pytest.raises(ValueError):
            reg.histogram("z", labelnames=("a",))

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total", "Requests").inc(3)
        reg.gauge("depth").set(2)
        h = reg.histogram(
            "lat", "Latency", buckets=(0.1, 1.0), labelnames=("alg",)
        )
        h.labels(alg="luby").observe(0.5)
        text = reg.render_prometheus()
        assert "# HELP reqs_total Requests" in text
        assert "# TYPE reqs_total counter" in text
        assert "reqs_total 3" in text
        assert "depth 2" in text
        assert 'lat_bucket{alg="luby",le="0.1"} 0' in text
        assert 'lat_bucket{alg="luby",le="1"} 1' in text
        assert 'lat_bucket{alg="luby",le="+Inf"} 1' in text
        assert 'lat_sum{alg="luby"} 0.5' in text
        assert 'lat_count{alg="luby"} 1' in text

    def test_label_value_escaping(self):
        # Prometheus text-format: backslash, double-quote, and newline in
        # label values must be escaped (regression: they used to pass
        # through raw, corrupting the exposition).
        reg = MetricsRegistry()
        fam = reg.counter("esc_total", "Help", labelnames=("path",))
        fam.labels(path='C:\\tmp\n"x"').inc()
        text = reg.render_prometheus()
        assert 'esc_total{path="C:\\\\tmp\\n\\"x\\""} 1' in text
        assert "\n\"x\"" not in text.replace('\\n', '')  # no raw newline mid-value
        for line in text.splitlines():
            assert line.count('"') % 2 == 0  # every line stays parseable

    def test_help_escaping(self):
        reg = MetricsRegistry()
        reg.counter("h_total", "line1\nline2\\end").inc()
        text = reg.render_prometheus()
        assert "# HELP h_total line1\\nline2\\\\end" in text

    def test_label_key_round_trip(self):
        from repro.obs.metrics import label_key, parse_label_key

        labels = {"a": 'quo"te', "b": "back\\slash", "c": "new\nline"}
        assert parse_label_key(label_key(labels)) == labels
        assert parse_label_key("") == {}

    def test_empty_families_omitted(self):
        reg = MetricsRegistry()
        reg.counter("declared_only", labelnames=("a",))  # no children yet
        assert reg.render_prometheus() == ""
        assert reg.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h", buckets=(1,), labelnames=("k",)).labels(
            k="v"
        ).observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"]["c"][""] == 1.0
        assert snap["histograms"]["h"]['k="v"']["count"] == 1

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(9)
        reg.reset()
        assert reg.counter("c").value == 0.0


class TestRegistryResolution:
    def test_default_is_process_global(self):
        assert get_registry() is default_registry()

    def test_use_registry_rebinds_and_restores(self):
        mine = MetricsRegistry()
        with use_registry(mine) as bound:
            assert bound is mine
            assert get_registry() is mine
            mine2 = MetricsRegistry()
            with use_registry(mine2):
                assert get_registry() is mine2
            assert get_registry() is mine
        assert get_registry() is default_registry()


class TestHistogramQuantile:
    def test_interpolates_within_bucket(self):
        h = Histogram(buckets=(10, 20))
        for v in (1, 3, 5, 7, 9):  # all in (0, 10]
            h.observe(v)
        # target = q * 5 observations, all in the first bucket [0, 10]
        assert h.quantile(0.5) == pytest.approx(5.0)
        assert h.quantile(1.0) == pytest.approx(10.0)

    def test_spans_buckets(self):
        h = Histogram(buckets=(1, 2, 4))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(3.0)
        h.observe(3.5)
        # q=0.5 → target 2 obs → cumulative hits 2 at bound 2.0
        assert h.quantile(0.5) == pytest.approx(2.0)
        # q=0.75 → target 3 → halfway through the (2, 4] bucket
        assert h.quantile(0.75) == pytest.approx(3.0)

    def test_inf_bucket_clamps(self):
        h = Histogram(buckets=(1, 2))
        h.observe(100.0)
        assert h.quantile(0.99) == pytest.approx(2.0)

    def test_empty_is_none(self):
        # Empty histograms answer None (surfaced as "-" in repro stats),
        # never nan or an exception.
        assert Histogram(buckets=(1,)).quantile(0.5) is None
        assert Histogram(buckets=(1,)).quantile(0.0) is None

    def test_empty_family_summary_has_none_mean(self):
        reg = MetricsRegistry()
        fam = reg.histogram("lat_e", buckets=(1,), labelnames=("a",))
        fam.labels(a="x")  # child exists, zero observations
        summary = reg.quantiles("lat_e")['a="x"']
        assert summary["count"] == 0.0
        assert summary["mean"] is None
        assert summary["p50"] is None

    def test_out_of_range_rejected(self):
        h = Histogram(buckets=(1,))
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)


class TestRegistryQuantiles:
    def test_summary_shape(self):
        reg = MetricsRegistry()
        fam = reg.histogram("lat", buckets=(1, 2, 4), labelnames=("algorithm",))
        child = fam.labels(algorithm="luby")
        for v in (0.5, 1.5, 3.0):
            child.observe(v)
        out = reg.quantiles("lat")
        summary = out['algorithm="luby"']
        assert summary["count"] == 3.0
        assert summary["mean"] == pytest.approx(5.0 / 3.0)
        assert set(summary) == {"count", "mean", "p50", "p95", "p99"}
        assert 0.0 < summary["p50"] <= summary["p95"] <= summary["p99"] <= 4.0

    def test_missing_or_wrong_kind_empty(self):
        reg = MetricsRegistry()
        assert reg.quantiles("nope") == {}
        reg.counter("c").inc()
        assert reg.quantiles("c") == {}

    def test_family_quantile_unlabeled(self):
        reg = MetricsRegistry()
        fam = reg.histogram("h", buckets=(2, 4))
        fam.observe(1.0)
        assert 0.0 < fam.quantile(0.5) <= 2.0


class TestAggregatedQuantiles:
    def _fleet(self):
        reg = MetricsRegistry()
        fam = reg.histogram(
            "lat", buckets=(1, 2, 4), labelnames=("algorithm", "worker")
        )
        fam.labels(algorithm="luby", worker="0").observe(0.5)
        fam.labels(algorithm="luby", worker="1").observe(1.5)
        fam.labels(algorithm="luby", worker="1").observe(3.0)
        fam.labels(algorithm="fair", worker="0").observe(0.5)
        return reg

    def test_drops_worker_dimension(self):
        out = self._fleet().quantiles("lat", drop_labels=("worker",))
        assert set(out) == {'algorithm="luby"', 'algorithm="fair"'}
        luby = out['algorithm="luby"']
        # Both workers' observations land in one merged histogram.
        assert luby["count"] == 3.0
        assert luby["mean"] == pytest.approx(5.0 / 3.0)
        assert 0.0 < luby["p50"] <= luby["p95"] <= luby["p99"] <= 4.0

    def test_drop_all_labels_collapses_to_fleet(self):
        out = self._fleet().quantiles(
            "lat", drop_labels=("worker", "algorithm")
        )
        assert set(out) == {""}
        assert out[""]["count"] == 4.0

    def test_custom_qs_name_mangling(self):
        out = self._fleet().quantiles(
            "lat", qs=(0.5, 0.999), drop_labels=("worker", "algorithm")
        )
        assert set(out[""]) == {"count", "mean", "p50", "p99_9"}

    def test_missing_or_wrong_kind_empty(self):
        reg = MetricsRegistry()
        assert reg.quantiles("nope", drop_labels=("worker",)) == {}
        reg.counter("c").inc()
        assert reg.quantiles("c", drop_labels=("worker",)) == {}

    def test_matches_plain_quantiles_when_nothing_dropped(self):
        reg = self._fleet()
        merged = reg.quantiles("lat", drop_labels=())
        plain = reg.quantiles("lat")
        assert set(merged) == set(plain)
        for key in plain:
            assert merged[key]["count"] == plain[key]["count"]
