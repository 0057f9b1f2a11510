"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import main
from repro.graphs import build_graph


class TestGraphSpecs:
    # Full parse/build coverage lives in tests/graphs/test_spec.py; here
    # we check the CLI-facing surface (spec strings reach the builder and
    # errors exit cleanly).
    def test_city_spec_scaled(self):
        g = build_graph("city:300:1")
        assert g.is_tree() and g.n >= 290

    def test_unknown_kind_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "--graph", "donut:5"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fair_tree_fast" in out and "luby" in out

    def test_run(self, capsys):
        assert main(["run", "--graph", "star:8", "--algorithm", "luby_fast"]) == 0
        out = capsys.readouterr().out
        assert "MIS size" in out

    def test_estimate(self, capsys):
        code = main(
            [
                "estimate",
                "--graph",
                "path:10",
                "--algorithm",
                "fair_tree_fast",
                "--trials",
                "80",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "inequality" in out and "histogram" in out

    def test_star_command(self, capsys):
        assert main(["star", "--trials", "120"]) == 0
        assert "P(center)" in capsys.readouterr().out

    def test_cone_command(self, capsys):
        assert main(["cone", "--trials", "100"]) == 0
        assert "P(apex)" in capsys.readouterr().out

    def test_optimal_command(self, capsys):
        assert main(["optimal", "--trials", "80"]) == 0
        assert "F* (exact)" in capsys.readouterr().out

    def test_families_command(self, capsys):
        assert main(["families", "--trials", "60"]) == 0
        assert "guaranteed" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestBatchCommand:
    def _request_file(self, tmp_path, lines):
        path = tmp_path / "requests.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_batch_streams_results(self, tmp_path, capsys):
        reqs = self._request_file(
            tmp_path,
            [
                json.dumps(
                    {
                        "id": "r1",
                        "graph": "tree:40:3",
                        "algorithm": "luby_fast",
                        "trials": 64,
                        "seed": 0,
                    }
                ),
                "# comments and blank lines are skipped",
                "",
                json.dumps(
                    {
                        "id": "r2",
                        "graph": "tree:40:3",
                        "algorithm": "luby_fast",
                        "trials": 64,
                        "seed": 0,
                    }
                ),
            ],
        )
        assert main(["batch", "--input", reqs, "--jobs", "1"]) == 0
        captured = capsys.readouterr()
        results = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["id"] for r in results] == ["r1", "r2"]
        assert results[0]["cached"] is False
        assert results[1]["cached"] is True  # identical request → cache hit
        assert results[1]["trials_run"] == 0
        assert results[0]["counts"] == results[1]["counts"]
        assert "cache hits" in captured.err

    def test_batch_output_file_and_no_counts(self, tmp_path, capsys):
        reqs = self._request_file(
            tmp_path,
            [json.dumps({"graph": "path:10", "algorithm": "luby_fast", "trials": 32})],
        )
        out = tmp_path / "results.jsonl"
        code = main(
            ["batch", "--input", reqs, "--output", str(out), "--jobs", "1", "--no-counts"]
        )
        assert code == 0
        capsys.readouterr()  # discard stderr stats
        (result,) = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        assert result["graph"] == "path:10"
        assert "counts" not in result
        assert result["trials"] == 32

    def test_batch_reports_per_line_errors(self, tmp_path, capsys):
        reqs = self._request_file(
            tmp_path,
            [
                "{not json",
                json.dumps({"graph": "donut:9"}),
                json.dumps({"graph": "path:6", "algorithm": "luby_fast", "trials": 8}),
            ],
        )
        with pytest.raises(SystemExit) as exc_info:
            main(["batch", "--input", reqs, "--jobs", "1"])
        assert exc_info.value.code == 1  # errors occurred, run completed
        results = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert "error" in results[0] and results[0]["line"] == 1
        assert "error" in results[1] and results[1]["line"] == 2
        assert "inequality" in results[2]

    def test_batch_mode_override(self, tmp_path, capsys):
        reqs = self._request_file(
            tmp_path,
            [json.dumps({"graph": "path:10", "algorithm": "luby_fast", "trials": 32})],
        )
        assert main(["batch", "--input", reqs, "--jobs", "1", "--mode", "exact"]) == 0
        (result,) = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert result["mode"] == "exact"


class TestServeCommand:
    def test_serve_reads_stdin(self, capsys, monkeypatch):
        request = json.dumps(
            {"graph": "path:8", "algorithm": "luby_fast", "trials": 16, "seed": 1}
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
        assert main(["serve", "--jobs", "1"]) == 0
        captured = capsys.readouterr()
        (result,) = [json.loads(line) for line in captured.out.splitlines()]
        assert result["trials"] == 16
        assert "ready" in captured.err

    def test_serve_stats_every_emits_snapshots(self, capsys, monkeypatch):
        request = json.dumps(
            {"graph": "path:8", "algorithm": "luby_fast", "trials": 16,
             "seed": 1, "mode": "exact"}
        )
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(request + "\n" + request + "\n")
        )
        assert main(["serve", "--jobs", "1", "--stats-every", "1"]) == 0
        captured = capsys.readouterr()
        stats = [
            json.loads(line)
            for line in captured.err.splitlines()
            if line.startswith("{")
        ]
        assert [s["requests_served"] for s in stats] == [1, 2]
        assert stats[0]["counters"]["trials_executed"] == 16
        assert stats[1]["counters"]["cache_hits"] == 1
        # the full registry snapshot rides along
        assert "service_request_latency_seconds" in stats[0]["metrics"][
            "histograms"
        ]

    def test_serve_log_level_emits_structured_events(
        self, capsys, monkeypatch
    ):
        from repro.obs.logging import disable_logging

        request = json.dumps(
            {"graph": "path:8", "algorithm": "luby_fast", "trials": 8,
             "seed": 1}
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
        try:
            assert main(["serve", "--jobs", "1", "--log-level", "info"]) == 0
        finally:
            disable_logging()
        err = capsys.readouterr().err
        events = [
            json.loads(line)
            for line in err.splitlines()
            if line.startswith("{") and '"event"' in line
        ]
        names = {e["event"] for e in events}
        assert "request_submitted" in names
        assert "request_completed" in names


class TestServeErrorCodes:
    """Client mistakes found only at submit come back as ``bad_request``;
    a failure while trials run stays ``internal``."""

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"algorithm": "no_such_alg", "trials": 8}, "unknown algorithm"),
            (
                {"algorithm": "luby_fast", "trials": 8, "params": {"bogus": 1}},
                "bogus",
            ),
            (
                {"algorithm": "fair_bipart_fast", "trials": 8,
                 "params": {"p": 1.0}},
                "p must lie in (0, 1)",
            ),
            (
                {"v": 2, "algorithm": "fair_bipart_fast",
                 "params": {"gamma": 0}},
                "gamma must be >= 1",
            ),
            (
                {"algorithm": "luby", "trials": 8, "mode": "vectorized"},
                "no vectorized runner",
            ),
        ],
        ids=["algorithm", "unknown-param", "p", "v2-gamma", "vectorized"],
    )
    def test_submit_errors_are_bad_request(self, obj, message):
        from repro.cli import _service_loop

        line = json.dumps({"graph": "tree:30:1", "seed": 0, **obj})
        out = io.StringIO()
        errors = _service_loop(
            [line], out, jobs=1, cache_size=8, mode="auto", include_counts=False
        )
        assert errors == 1
        payload = json.loads(out.getvalue())
        if obj.get("v") == 2:
            assert payload["error"]["code"] == "bad_request", payload
            text = payload["error"]["message"]
        else:
            assert payload["code"] == "bad_request", payload
            text = payload["error"]
        assert message in text
        assert not text.startswith(("'", '"'))  # no KeyError quoting

    def test_run_time_failure_stays_internal(self, monkeypatch):
        from repro.analysis import montecarlo
        from repro.cli import _service_loop

        def broken(*_args, **_kwargs):
            raise ValueError("engine fault")

        monkeypatch.setattr(montecarlo, "chunk_counts", broken)
        line = json.dumps(
            {"graph": "path:8", "algorithm": "luby_fast", "trials": 8,
             "seed": 0, "mode": "exact"}
        )
        out = io.StringIO()
        errors = _service_loop(
            [line], out, jobs=1, cache_size=8, mode="auto", include_counts=False
        )
        assert errors == 1
        payload = json.loads(out.getvalue())
        assert payload["code"] == "internal", payload
        assert "engine fault" in payload["error"]


class TestStatsCommand:
    def test_stats_both_formats(self, capsys):
        assert main(["stats", "--trials", "16"]) == 0
        out = capsys.readouterr().out
        # Prometheus text exposition: counters plus the three headline
        # histograms.
        # 2 exact requests + 2 precision requests probe both planes.
        assert "# TYPE service_requests_total counter" in out
        assert "service_requests_total 4" in out
        assert "service_request_latency_seconds_bucket" in out
        assert "service_trials_per_chunk_bucket" in out
        assert 'trial_rounds_bucket{algorithm="luby_fast"' in out
        # JSON snapshot follows and parses
        json_part = out[out.index('{\n  "counters"'):]
        doc = json.loads(json_part)
        assert doc["counters"]["trials_executed"] >= 16
        assert doc["counters"]["cache_hits"] == 1
        assert doc["counters"]["precision_requests"] == 2
        assert "trial_rounds" in doc["metrics"]["histograms"]

    def test_stats_json_only(self, capsys):
        assert main(["stats", "--trials", "8", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counters"]["requests"] == 4
        hists = doc["metrics"]["histograms"]
        assert "service_request_latency_seconds" in hists
        assert "service_trials_per_chunk" in hists
        assert "trial_rounds" in hists

    def test_stats_prom_only(self, capsys):
        assert main(["stats", "--trials", "8", "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# HELP")
        assert "{" not in out.splitlines()[-2] or "le=" in out  # no JSON tail

    def test_stats_bad_graph_exits(self):
        with pytest.raises(SystemExit):
            main(["stats", "--graph", "donut:5"])
