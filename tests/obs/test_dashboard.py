"""``repro top`` dashboard: windowed math and frame rendering."""

import io
import json

import pytest

from repro.obs.dashboard import (
    TopDashboard,
    _delta_buckets,
    _fraction_over,
    run_top,
    snapshot_from_registry,
)
from repro.obs.metrics import MetricsRegistry, bucket_quantile, merged_buckets


def _latency_hist(buckets, count, total):
    return {'algorithm="a"': {"count": count, "sum": total, "buckets": buckets}}


def _point(
    ts,
    *,
    latency=None,
    workers=None,
    counters=None,
    served=None,
    queue=None,
):
    """One stats-event snapshot in the ``--stats-file`` wire shape;
    *counters* maps ``field`` to the ``service_<field>_total`` series."""
    histograms = {}
    if latency is not None:
        histograms["service_request_latency_seconds"] = latency
    if workers is not None:
        histograms["worker_chunk_seconds"] = {
            f'algorithm="a",worker="{w}"': {
                "count": chunks,
                "sum": busy,
                "buckets": {"+Inf": chunks},
            }
            for w, (busy, chunks) in workers.items()
        }
    gauges = {}
    if queue is not None:
        gauges["service_queue_depth_current"] = {"": queue}
    series = {
        f"service_{field}_total": {"": value}
        for field, value in (counters or {}).items()
    }
    point = {
        "event": "stats",
        "ts": ts,
        "metrics": {"counters": series, "gauges": gauges, "histograms": histograms},
    }
    if served is not None:
        point["requests_served"] = served
    return point


class TestWindowMath:
    def test_delta_buckets_subtract_oldest(self):
        new = merged_buckets({"": {"buckets": {"0.1": 5, "1": 9, "+Inf": 10}}})
        old = merged_buckets({"": {"buckets": {"0.1": 2, "1": 4, "+Inf": 4}}})
        assert _delta_buckets(new, old) == [(0.1, 3.0), (1.0, 5.0), (float("inf"), 6.0)]

    def test_delta_never_negative_after_restart(self):
        # a restarted service resets cumulative counts; the window must
        # clamp rather than report negative mass
        inf = float("inf")
        assert _delta_buckets([(inf, 1.0)], [(inf, 5.0)]) == [(inf, 0.0)]

    def test_quantile_interpolates(self):
        pairs = [(0.1, 2.0), (1.0, 4.0), (float("inf"), 4.0)]
        assert bucket_quantile(pairs, 0.50) == pytest.approx(0.1)
        assert bucket_quantile(pairs, 0.95) == pytest.approx(0.91)

    def test_quantile_empty_is_none(self):
        assert bucket_quantile([], 0.5) is None
        assert bucket_quantile([(1.0, 0.0)], 0.5) is None

    def test_fraction_over_interpolates(self):
        pairs = [(0.1, 2.0), (1.0, 4.0), (float("inf"), 4.0)]
        assert _fraction_over(pairs, 0.25) == pytest.approx(1 - (2 + 2 / 6) / 4)
        assert _fraction_over([], 0.25) is None


class TestDashboard:
    def test_rejects_degenerate_slo_target(self):
        with pytest.raises(ValueError):
            TopDashboard(slo_target=1.0)

    def _loaded(self):
        dash = TopDashboard(slo_ms=250.0, slo_target=0.95, window_s=60.0)
        dash.update(
            _point(
                100.0,
                latency=_latency_hist({"0.1": 0, "1": 0, "+Inf": 0}, 0, 0.0),
                workers={"pid:1": (0.0, 0), "pid:2": (0.0, 0)},
                counters={"requests": 0, "cache_hits": 0, "cache_misses": 0},
            )
        )
        dash.update(
            _point(
                130.0,
                latency=_latency_hist({"0.1": 2, "1": 4, "+Inf": 4}, 4, 2.0),
                workers={"pid:1": (15.0, 3), "pid:2": (6.0, 2)},
                counters={
                    "requests": 60,
                    "cache_hits": 3,
                    "cache_misses": 1,
                    "evidence_hits": 1,
                    "evidence_misses": 1,
                },
                served=60,
                queue=4.0,
            )
        )
        return dash

    def test_latency_percentiles_from_windowed_delta(self):
        latency = self._loaded().latency_ms()
        assert latency["p50"] == pytest.approx(100.0)
        assert latency["p95"] == pytest.approx(910.0)
        assert latency["over_slo"] == pytest.approx(1 - (2 + 2 / 6) / 4)

    def test_slo_burn_is_over_fraction_vs_budget(self):
        dash = self._loaded()
        over = dash.latency_ms()["over_slo"]
        assert dash.slo_burn() == pytest.approx(over / 0.05)
        assert dash.slo_burn() > 1.0  # this workload violates the SLO

    def test_worker_utilization_is_busy_per_wall_second(self):
        workers = self._loaded().workers()
        by_name = {w["worker"]: w for w in workers}
        assert by_name["pid:1"]["utilization"] == pytest.approx(15.0 / 30.0)
        assert by_name["pid:2"]["utilization"] == pytest.approx(6.0 / 30.0)
        assert by_name["pid:1"]["chunks"] == 3
        assert [w["worker"] for w in workers] == ["pid:1", "pid:2"]

    def test_queue_depth_and_request_rate(self):
        dash = self._loaded()
        assert dash.queue_depth() == 4.0
        oldest, newest = dash._window()
        assert dash._registry_rate(
            oldest, newest, "service_requests_total"
        ) == pytest.approx(2.0)

    def test_render_frame(self):
        frame = self._loaded().render()
        assert "repro top" in frame
        assert "p50 100.00" in frame
        assert "!! SLO" in frame
        assert "cache hit 75.0%" in frame
        assert "pid:1" in frame
        assert "\x1b[2J" not in frame
        assert "\x1b[2J" in self._loaded().render(ansi=True)

    def test_single_point_renders_dashes_not_rates(self):
        # one snapshot gives no rate basis: utilization and rate show
        # "-" rather than a fabricated number
        dash = TopDashboard()
        dash.update(_point(100.0, workers={"pid:1": (5.0, 2)}, served=10))
        frame = dash.render()
        assert "rate: -" in frame
        assert "   - " in frame
        assert "busy 5.00s  chunks 2" in frame

    def test_empty_dashboard_waits(self):
        assert "waiting for stats" in TopDashboard().render()

    def test_ignores_non_stats_events(self):
        dash = TopDashboard()
        dash.update({"event": "result", "ts": 1.0})
        assert "waiting for stats" in dash.render()


class TestFrontendRow:
    @staticmethod
    def _fe_point(ts, *, admitted, shed, rate_limited=0.0, sat=None, peak=None):
        gauges = {}
        if sat is not None:
            gauges["frontend_queue_saturation"] = {"": sat}
        if peak is not None:
            gauges["frontend_admission_peak_load"] = {"": peak}
        return {
            "event": "stats",
            "ts": ts,
            "metrics": {
                "counters": {
                    "frontend_admitted_total": {"": admitted},
                    "frontend_shed_total": {"": shed},
                    "frontend_rate_limited_total": {"": rate_limited},
                },
                "gauges": gauges,
                "histograms": {},
            },
        }

    def test_absent_without_frontend_families(self):
        dash = TopDashboard()
        dash.update(_point(100.0, served=1))
        assert dash.frontend() is None
        assert "frontend " not in dash.render()

    def test_admission_view_and_render(self):
        dash = TopDashboard(window_s=60.0)
        dash.update(self._fe_point(100.0, admitted=0, shed=0))
        dash.update(
            self._fe_point(
                110.0,
                admitted=90,
                shed=10,
                rate_limited=3,
                sat=0.25,
                peak=0.42,
            )
        )
        front = dash.frontend()
        assert front is not None
        assert front["admit_rate"] == pytest.approx(9.0)
        assert front["shed_pct"] == pytest.approx(10.0)
        assert front["rate_limited"] == 3.0
        assert front["saturation"] == pytest.approx(0.25)
        assert front["peak_load"] == pytest.approx(0.42)
        frame = dash.render()
        assert "frontend    admit 9.0/s" in frame
        assert "shed 10.0%" in frame
        assert "queue sat 25%" in frame
        assert "peak load 0.42" in frame

    def test_zero_decisions_render_dashes(self):
        dash = TopDashboard()
        dash.update(self._fe_point(100.0, admitted=0, shed=0))
        front = dash.frontend()
        assert front is not None
        assert front["shed_pct"] is None
        assert "shed -" in dash.render()


class TestSnapshotFromRegistry:
    def test_shapes_like_stats_event(self):
        reg = MetricsRegistry()
        reg.counter("requests_total").inc()
        snap = snapshot_from_registry(reg, requests_served=7)
        assert snap["event"] == "stats"
        assert snap["ts"] > 0
        assert snap["metrics"]["counters"]["requests_total"][""] == 1.0
        assert snap["requests_served"] == 7
        assert "counters" not in snap  # totals live under metrics only


class TestRunTop:
    def test_once_renders_single_plain_frame(self, tmp_path):
        path = tmp_path / "stats.jsonl"
        lines = [
            json.dumps(_point(100.0, served=1)),
            "not json at all",
            json.dumps({"event": "result"}),
            json.dumps(_point(101.0, served=2, queue=1.0)),
        ]
        path.write_text("\n".join(lines) + "\n")
        out = io.StringIO()
        run_top(str(path), once=True, out=out)
        frame = out.getvalue()
        assert frame.count("repro top") == 1
        assert "requests: 2" in frame
        assert "\x1b[2J" not in frame
