"""Tests for the command-line interface."""

import io
import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.graphs import build_graph

#: Environment for running ``python -m repro`` in a child process.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))


def _repro(*argv, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=CHILD_ENV, text=True, timeout=120, **kwargs,
    )


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
        counters = [s["metrics"]["counters"] for s in stats]
        assert counters[0]["service_trials_executed_total"][""] == 16
        assert counters[1]["service_cache_hits_total"][""] == 1
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


PROBE = Path(__file__).resolve().parents[2] / "examples" / "probe.jsonl"


@pytest.fixture(scope="module")
def probe_files(tmp_path_factory):
    """The stats, span and result files of one ``batch`` run of the
    operator probe, ``examples/probe.jsonl``."""
    root = tmp_path_factory.mktemp("probe")
    files = {
        "stats": str(root / "stats.jsonl"),
        "spans": str(root / "spans.jsonl"),
        "results": str(root / "results.jsonl"),
    }
    argv = [
        "batch", "--input", str(PROBE), "--jobs", "2", "--stats-every", "1",
        "--stats-file", files["stats"], "--trace-file", files["spans"],
        "--output", files["results"],
    ]
    assert main(argv) == 0
    return files


class TestOperatorReaders:
    """``top``, ``health``, ``trace``, ``explain`` and ``evidence`` read
    the files a ``batch`` run of the probe writes."""

    def test_probe_results(self, probe_files):
        with open(probe_files["results"], encoding="utf-8") as fh:
            results = {r["id"]: r for r in map(json.loads, fh)}
        assert list(results) == ["exact", "exact-again", "warm", "cold"]
        assert results["exact-again"]["cached"] is True
        assert results["warm"]["prior_trials"] == 64
        assert "convergence" in results["cold"]

    def test_stats_lines_carry_evidence_rows(self, probe_files):
        with open(probe_files["stats"], encoding="utf-8") as fh:
            stats = [json.loads(line) for line in fh]
        assert [s["requests_served"] for s in stats] == [1, 2, 3, 4]
        for snapshot in stats:
            assert {"latency_ms", "metrics", "evidence"} <= set(snapshot)
            assert "counters" not in snapshot
        assert len(stats[-1]["evidence"]) == 2

    def test_top_once_lists_worker_rows(self, probe_files, capsys):
        assert main(["top", "--stats-file", probe_files["stats"], "--once"]) == 0
        frame = capsys.readouterr().out
        assert "repro top" in frame
        assert "\n  pid:" in frame

    def test_health_is_ok(self, probe_files, capsys):
        argv = ["health", "--stats-file", probe_files["stats"], "--slo-ms", "2000"]
        assert main(argv) == 0
        assert "health: ok" in capsys.readouterr().out

    def test_trace_exports_one_connected_tree(self, probe_files, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "--input", probe_files["spans"], "--out", str(out)]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        ids = {e["args"]["span_id"] for e in events}
        roots = [e for e in events if not e["args"]["parent_id"]]
        orphans = [
            e for e in events
            if e["args"]["parent_id"] and e["args"]["parent_id"] not in ids
        ]
        assert len(roots) == 1, [e["name"] for e in roots]
        assert not orphans, [e["name"] for e in orphans]
        # batch --jobs 2 clamps to the host's cores; one core runs inline.
        assert len({e["pid"] for e in events}) >= min(2, os.cpu_count() or 1)

    def test_trace_list_names_every_request(self, probe_files, capsys):
        assert main(["trace", "--input", probe_files["spans"], "--list"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_explain_renders_the_cold_request(self, probe_files, capsys):
        assert main(["explain", "--input", probe_files["results"]]) == 0
        out = capsys.readouterr().out
        assert "request    : cold" in out
        assert "stop reason" in out
        rounds = [
            line.split() for line in out.splitlines()
            if line.split() and line.split()[0].isdigit()
        ]
        assert [int(r[0]) for r in rounds] == list(range(1, len(rounds) + 1))
        assert rounds[-1][-1] in ("satisfied", "capped")

    def test_explain_unknown_id_exits(self, probe_files):
        argv = ["explain", "--input", probe_files["results"], "--id", "exact"]
        with pytest.raises(SystemExit, match="no request id 'exact'"):
            main(argv)

    def test_evidence_ls_lists_both_pools_and_filters(self, probe_files, capsys):
        stats = probe_files["stats"]
        assert main(["evidence", "ls", "--stats-file", stats, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_alg = {r["algorithm"]: r for r in rows}
        assert sorted(by_alg) == ["fair_tree_fast", "luby_fast"]
        assert by_alg["luby_fast"]["trials"] > 64  # exact run + warm v2 run

        argv = ["evidence", "ls", "--stats-file", stats, "--json",
                "--match-algorithm", "luby_fast"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == [by_alg["luby_fast"]]

        prefix = by_alg["fair_tree_fast"]["graph_hash"][:12]
        argv = ["evidence", "ls", "--stats-file", stats, "--json",
                "--graph-hash", prefix]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == [by_alg["fair_tree_fast"]]

    def test_evidence_show_and_table(self, probe_files, capsys):
        stats = probe_files["stats"]
        assert main(["evidence", "show", "--stats-file", stats,
                     "--match-algorithm", "fair_tree_fast"]) == 0
        out = capsys.readouterr().out
        assert out.count("graph hash :") == 1 and "fair_tree_fast" in out
        assert main(["evidence", "ls", "--stats-file", stats]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[0].startswith("graph hash") and len(table) == 3
        assert main(["evidence", "ls", "--stats-file", stats,
                     "--match-algorithm", "luby"]) == 0
        assert "no matching pools" in capsys.readouterr().out


READERS = {
    "top": lambda path: ["top", "--stats-file", path],
    "top-once": lambda path: ["top", "--stats-file", path, "--once"],
    "health": lambda path: ["health", "--stats-file", path],
    "evidence": lambda path: ["evidence", "ls", "--stats-file", path],
    "trace": lambda path: ["trace", "--input", path],
    "explain": lambda path: ["explain", "--input", path],
}


class TestOperatorReaderErrors:
    """Every reader answers a bad path the same way: exit 1 with a
    one-line message, no traceback."""

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_missing_file(self, reader, tmp_path):
        path = str(tmp_path / "absent.jsonl")
        with pytest.raises(SystemExit) as exc_info:
            main(READERS[reader](path))
        assert exc_info.value.code == (
            f"error: cannot read {path}: No such file or directory"
        )

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_directory(self, reader, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(READERS[reader](str(tmp_path)))
        assert exc_info.value.code == (
            f"error: cannot read {tmp_path}: Is a directory"
        )

    @pytest.mark.parametrize("reader", ["top-once", "health", "evidence"])
    def test_stats_file_without_snapshots(self, reader, tmp_path):
        path = tmp_path / "stats.jsonl"
        path.write_text('{"event": "log"}\nnot json\n', encoding="utf-8")
        with pytest.raises(SystemExit) as exc_info:
            main(READERS[reader](str(path)))
        assert str(exc_info.value.code).startswith(
            f"error: no stats snapshots in {path}"
        )

    def test_evidence_needs_evidence_rows(self, tmp_path):
        # A front end's stats snapshot has no evidence plane of its own.
        path = tmp_path / "stats.jsonl"
        path.write_text('{"event": "stats", "metrics": {}}\n', encoding="utf-8")
        with pytest.raises(SystemExit, match="has no evidence rows"):
            main(READERS["evidence"](str(path)))

    @pytest.mark.parametrize(
        "argv", [["stats"], ["evidence", "purge"]], ids=["stats", "purge"]
    )
    def test_removed_commands_do_not_parse(self, argv, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestClosedStdout:
    """Every reader writing into a pipe whose reader has gone ends
    quietly, exit 1; a stats file ``top`` cannot read still answers
    ``cannot read``."""

    CLOSED = {
        "top": lambda f: ["top", "--stats-file", f["stats"], "--once"],
        "health": lambda f: ["health", "--stats-file", f["stats"], "--slo-ms", "2000"],
        "explain": lambda f: ["explain", "--input", f["results"]],
        "trace": lambda f: ["trace", "--input", f["spans"], "--out", "-"],
        "evidence": lambda f: ["evidence", "ls", "--stats-file", f["stats"]],
    }

    @pytest.mark.parametrize("case", sorted(CLOSED) + ["unreadable-stats"])
    def test_reader(self, case, probe_files, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        if case in self.CLOSED:
            argv = self.CLOSED[case](probe_files)
        else:
            argv = ["top", "--stats-file", str(tmp_path)]
        try:
            proc = _repro(*argv, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        if case in self.CLOSED:
            assert proc.stderr == ""
        else:
            assert proc.stderr == f"error: cannot read {tmp_path}: Is a directory\n"


class TestServeListenErrors:
    def test_port_in_use_starts_no_shard(self):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            proc = _repro(
                "serve", "--tcp", f"127.0.0.1:{port}", "--shards", "1",
                stdin=subprocess.DEVNULL, capture_output=True,
            )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"error: cannot listen on 127.0.0.1:{port}: Address already in use"
        ]
        assert proc.stdout == ""


class TestOutputErrors:
    """An output path that cannot be opened answers ``cannot open`` with
    that path, before any request runs; errors of the run itself are
    not re-labelled as the stats file's."""

    def test_batch_output_directory(self, tmp_path, capsys):
        argv = ["batch", "--input", str(PROBE), "--output", str(tmp_path)]
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == (
            f"error: cannot open {tmp_path}: Is a directory"
        )
        assert "service:" not in capsys.readouterr().err  # nothing ran

    def test_batch_output_directory_with_stats_file(self, tmp_path):
        stats = tmp_path / "stats.jsonl"
        argv = ["batch", "--input", str(PROBE), "--output", str(tmp_path),
                "--stats-every", "1", "--stats-file", str(stats)]
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == (
            f"error: cannot open {tmp_path}: Is a directory"
        )
        assert not stats.exists()

    def test_trace_out_directory(self, probe_files, tmp_path):
        argv = ["trace", "--input", probe_files["spans"], "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == (
            f"error: cannot open {tmp_path}: Is a directory"
        )

    def test_stats_stream_lets_body_errors_through(self, tmp_path):
        import argparse

        from repro.cli import _stats_stream

        args = argparse.Namespace(stats_file=str(tmp_path / "stats.jsonl"))
        bind = OSError(98, "error while attempting to bind on address")
        with pytest.raises(OSError) as exc_info:
            with _stats_stream(args) as stream:
                assert stream is not None
                raise bind
        assert exc_info.value is bind


#: Every lifetime total the service keeps, as ``service_<field>_total``.
SERVICE_TOTALS = (
    "requests", "precision_requests", "coalesced_requests",
    "chunks_executed", "trials_executed", "early_stops",
    "cache_hits", "cache_misses", "cache_evictions",
    "evidence_hits", "evidence_misses", "evidence_deposits",
    "evidence_trials_reused",
)


@pytest.fixture(scope="module")
def miss_only_stats(tmp_path_factory):
    """The stats file of a ``batch`` run of two exact requests that both
    miss the cache, one snapshot per request."""
    root = tmp_path_factory.mktemp("miss-only")
    requests = root / "requests.jsonl"
    requests.write_text(
        "".join(
            json.dumps({"graph": f"tree:40:{seed}", "algorithm": "luby_fast",
                        "trials": 32, "seed": seed, "mode": "exact"}) + "\n"
            for seed in (1, 2)
        ),
        encoding="utf-8",
    )
    stats = str(root / "stats.jsonl")
    argv = ["batch", "--input", str(requests), "--jobs", "1", "--no-counts",
            "--stats-every", "1", "--stats-file", stats,
            "--output", str(root / "results.jsonl")]
    assert main(argv) == 0
    return stats


class TestStatsReaders:
    """Stats snapshots carry the service totals once, in the registry's
    ``metrics`` block, from the first snapshot on; ``health`` and ``top``
    read them there."""

    def test_first_snapshot_carries_every_total(self, miss_only_stats):
        with open(miss_only_stats, encoding="utf-8") as fh:
            first = json.loads(fh.readline())
        assert "counters" not in first
        counters = first["metrics"]["counters"]
        totals = {
            field: counters[f"service_{field}_total"][""]
            for field in SERVICE_TOTALS
        }
        assert totals["requests"] == 1
        assert totals["cache_misses"] == 1
        assert totals["trials_executed"] == 32
        untouched = set(SERVICE_TOTALS) - {
            "requests", "cache_misses", "trials_executed", "chunks_executed",
            "evidence_deposits",
        }
        assert all(totals[field] == 0 for field in untouched), totals

    def test_health_warns_on_zero_cache_hit_rate(self, miss_only_stats, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["health", "--stats-file", miss_only_stats, "--json"])
        assert exc_info.value.code == 1
        rules = {
            r["rule"]: r for r in json.loads(capsys.readouterr().out)["rules"]
        }
        assert rules["cache_hit_rate"]["value"] == 0
        assert rules["cache_hit_rate"]["status"] == "warn"

    def test_top_shows_hit_rate_and_request_rate(self, miss_only_stats, capsys):
        assert main(["top", "--stats-file", miss_only_stats, "--once"]) == 0
        frame = capsys.readouterr().out
        assert "cache hit 0.0%" in frame
        assert re.search(r"rate: \d+\.\d/s", frame), frame
