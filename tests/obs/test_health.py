"""SLO health rules (`repro health`)."""

import json

import pytest

from repro.obs.health import (
    STATUSES,
    HealthReport,
    HealthRule,
    RuleResult,
    default_rules,
    evaluate_health,
    load_stats_snapshot,
)


def latency_snapshot(ms: float, count: int = 100) -> dict:
    """A snapshot whose request-latency mass sits entirely at *ms*."""
    sec = ms / 1e3
    buckets = {f"{sec:g}": count, "+Inf": count}
    return {
        "metrics": {
            "histograms": {
                "service_request_latency_seconds": {
                    "algorithm=fair_tree_fast": {
                        "count": count,
                        "sum": sec * count,
                        "buckets": buckets,
                    }
                }
            }
        }
    }


class TestHealthRule:
    def test_direction_validated(self):
        with pytest.raises(ValueError):
            HealthRule(
                name="x", description="", extract=lambda s: 0.0,
                direction="sideways",
            )

    def test_missing_data_is_ok(self):
        rule = HealthRule(
            name="x", description="", extract=lambda s: None,
            direction="above", warn=0, crit=0,
        )
        res = rule.evaluate({})
        assert res.status == "ok" and res.value is None

    def test_above_thresholds(self):
        rule = HealthRule(
            name="x", description="", extract=lambda s: s["v"],
            direction="above", warn=10, crit=100,
        )
        assert rule.evaluate({"v": 10}).status == "ok"  # strict inequality
        assert rule.evaluate({"v": 11}).status == "warn"
        assert rule.evaluate({"v": 101}).status == "crit"

    def test_below_thresholds(self):
        rule = HealthRule(
            name="x", description="", extract=lambda s: s["v"],
            direction="below", warn=0.5, crit=0.1,
        )
        assert rule.evaluate({"v": 0.5}).status == "ok"
        assert rule.evaluate({"v": 0.4}).status == "warn"
        assert rule.evaluate({"v": 0.05}).status == "crit"

    def test_none_threshold_skips_severity(self):
        rule = HealthRule(
            name="x", description="", extract=lambda s: s["v"],
            direction="above", warn=1, crit=None,
        )
        assert rule.evaluate({"v": 1e9}).status == "warn"


class TestDefaultRules:
    def test_empty_snapshot_all_ok(self):
        report = evaluate_health({})
        assert report.status == "ok"
        assert report.exit_code == 0
        assert all(r.value is None for r in report.results)

    def test_latency_warn_and_crit_derive_from_slo(self):
        ok = evaluate_health(latency_snapshot(100), slo_ms=250)
        warn = evaluate_health(latency_snapshot(600), slo_ms=250)
        crit = evaluate_health(latency_snapshot(2000), slo_ms=250)
        assert ok.status_of("latency_p99_ms") == "ok"
        assert warn.status_of("latency_p99_ms") == "warn"
        assert warn.exit_code == 1
        assert crit.status_of("latency_p99_ms") == "crit"
        assert crit.exit_code == 2

    def test_queue_depth_gauge(self):
        snap = {
            "metrics": {
                "gauges": {"service_queue_depth_current": {"": 500.0}}
            }
        }
        assert evaluate_health(snap).status_of("queue_depth") == "crit"

    def test_early_stop_ratio_from_counters_block(self):
        snap = {
            "metrics": {
                "counters": {
                    "service_early_stops_total": {"": 1},
                    "service_precision_requests_total": {"": 20},
                }
            }
        }
        report = evaluate_health(snap)
        assert report.status_of("early_stop_ratio") == "crit"

    def test_counter_falls_back_to_registry_series(self):
        snap = {
            "metrics": {
                "counters": {
                    "service_early_stops_total": {"": 9},
                    "service_precision_requests_total": {"": 10},
                }
            }
        }
        assert evaluate_health(snap).status_of("early_stop_ratio") == "ok"

    def test_zero_denominator_is_no_data(self):
        snap = {
            "metrics": {
                "counters": {
                    "service_early_stops_total": {"": 0},
                    "service_precision_requests_total": {"": 0},
                }
            }
        }
        report = evaluate_health(snap)
        assert report.status_of("early_stop_ratio") == "ok"

    def test_fallbacks_and_duplicates_warn_on_any(self):
        snap = {
            "metrics": {
                "counters": {
                    "service_vectorized_fallback_total": {
                        "algorithm=luby_fast": 1
                    },
                    "telemetry_chunks_duplicate_total": {"worker=0": 2},
                }
            }
        }
        report = evaluate_health(snap)
        assert report.status_of("vectorized_fallbacks") == "warn"
        assert report.status_of("telemetry_duplicates") == "warn"
        assert {r.rule.name for r in report.failing()} == {
            "vectorized_fallbacks",
            "telemetry_duplicates",
        }

    def test_frontend_rules_no_data_is_ok(self):
        # Single-process deployments have no frontend_* families at all.
        report = evaluate_health({"metrics": {"counters": {}, "gauges": {}}})
        assert report.status_of("frontend_shed_rate") == "ok"
        assert report.status_of("frontend_queue_saturation") == "ok"

    def test_frontend_shed_rate_thresholds(self):
        def snap(admitted: float, shed: float) -> dict:
            return {
                "metrics": {
                    "counters": {
                        "frontend_admitted_total": {"": admitted},
                        "frontend_shed_total": {"": shed},
                    }
                }
            }

        assert evaluate_health(snap(100, 0)).status_of(
            "frontend_shed_rate") == "ok"
        assert evaluate_health(snap(95, 5)).status_of(
            "frontend_shed_rate") == "warn"
        assert evaluate_health(snap(50, 50)).status_of(
            "frontend_shed_rate") == "crit"

    def test_frontend_shed_rate_zero_decisions_is_no_data(self):
        snap = {
            "metrics": {
                "counters": {
                    "frontend_admitted_total": {"": 0},
                    "frontend_shed_total": {"": 0},
                }
            }
        }
        assert evaluate_health(snap).status_of("frontend_shed_rate") == "ok"

    def test_frontend_queue_saturation_thresholds(self):
        def snap(sat: float) -> dict:
            return {
                "metrics": {
                    "gauges": {"frontend_queue_saturation": {"": sat}}
                }
            }

        assert evaluate_health(snap(0.3)).status_of(
            "frontend_queue_saturation") == "ok"
        assert evaluate_health(snap(0.7)).status_of(
            "frontend_queue_saturation") == "warn"
        assert evaluate_health(snap(0.95)).status_of(
            "frontend_queue_saturation") == "crit"


class TestHealthReport:
    def _mixed(self) -> HealthReport:
        mk = lambda n, v, w, c: HealthRule(  # noqa: E731
            name=n, description=n, extract=lambda s: v,
            direction="above", warn=w, crit=c,
        )
        rules = (mk("a", 1, 10, 20), mk("b", 15, 10, 20), mk("c", 25, 10, 20))
        return evaluate_health({}, rules=rules)

    def test_worst_status_wins(self):
        report = self._mixed()
        assert report.status == "crit" and report.exit_code == 2
        assert [r.rule.name for r in report.failing()] == ["c", "b"]

    def test_status_of_unknown_rule(self):
        assert self._mixed().status_of("nope") is None

    def test_format_marks_and_verdict(self):
        text = self._mixed().format()
        lines = text.splitlines()
        assert lines[0].startswith("ok  ")
        assert lines[1].startswith("WARN")
        assert lines[2].startswith("CRIT")
        assert lines[-1] == "health: crit"

    def test_format_no_data(self):
        report = evaluate_health({})
        assert "(no data)" in report.format()

    def test_to_json_round_trips_through_dumps(self):
        doc = json.loads(json.dumps(self._mixed().to_json()))
        assert doc["status"] == "crit"
        assert doc["exit_code"] == 2
        assert [r["rule"] for r in doc["rules"]] == ["a", "b", "c"]

    def test_empty_rule_set_is_ok(self):
        report = HealthReport(results=())
        assert report.status == "ok" and report.exit_code == 0

    def test_statuses_index_is_exit_code(self):
        assert STATUSES == ("ok", "warn", "crit")
        assert isinstance(
            RuleResult(rule=default_rules()[0], status="ok", value=None),
            RuleResult,
        )


class TestLoadStatsSnapshot:
    def test_last_stats_event_wins(self, tmp_path):
        path = tmp_path / "stats.jsonl"
        lines = [
            json.dumps({"event": "stats", "ts": 1, "metrics": {}}),
            "not json at all",
            json.dumps({"event": "span", "name": "x"}),
            json.dumps({"event": "stats", "ts": 2, "metrics": {"counters": {}}}),
            "",
        ]
        path.write_text("\n".join(lines) + "\n")
        snap = load_stats_snapshot(str(path))
        assert snap["ts"] == 2

    def test_empty_file_returns_none(self, tmp_path):
        path = tmp_path / "stats.jsonl"
        path.write_text("")
        assert load_stats_snapshot(str(path)) is None
