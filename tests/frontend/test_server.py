"""Front-end pipeline and TCP plane.

The unit tests drive :meth:`Frontend.handle_line` directly (no shard
processes are started — paths that would reach a shard come back as
structured ``shard_unavailable``, which is itself part of the
contract).  The end-to-end test spawns real ``serve`` shard
subprocesses behind a TCP socket and checks the sharded warm path.
"""

import asyncio
import contextlib
import json

import pytest

from repro.frontend import (
    Frontend,
    FrontendConfig,
    LoadReport,
    run_loadgen,
    run_tcp_server,
)
from repro.frontend.server import _LineReader
from repro.obs.metrics import MetricsRegistry


def _run(coro):
    return asyncio.run(coro)


def _frontend(**kwargs) -> Frontend:
    return Frontend(FrontendConfig(**kwargs), registry=MetricsRegistry())


class TestHandleLine:
    def test_parse_error_is_structured(self):
        fe = _frontend()
        out = json.loads(_run(fe.handle_line("{nope", lineno=1)))
        assert out["code"] == "bad_json"
        assert out["line"] == 1

    def test_unsupported_version_v2_shape(self):
        fe = _frontend()
        out = json.loads(_run(fe.handle_line('{"v": 9, "graph": "tree:10"}')))
        assert out["error"]["code"] == "unsupported_version"

    def test_oversized_line(self):
        fe = _frontend(max_line_bytes=64)
        raw = json.dumps({"graph": "tree:10", "pad": "x" * 200})
        out = json.loads(_run(fe.handle_line(raw)))
        assert out["code"] == "line_too_large"

    def test_shard_unavailable_when_not_started(self):
        fe = _frontend()
        out = json.loads(
            _run(
                fe.handle_line(
                    '{"graph": "tree:10", "trials": 5, "id": "q"}'
                )
            )
        )
        assert out["code"] == "shard_unavailable"
        assert out["id"] == "q"

    def test_rate_limit_kicks_in(self):
        fe = _frontend(rate_limit=1.0, rate_burst=1.0)

        async def scenario():
            first = await fe.handle_line(
                '{"graph": "tree:10", "trials": 5}', client="10.0.0.1"
            )
            second = await fe.handle_line(
                '{"graph": "tree:10", "trials": 5}', client="10.0.0.1"
            )
            other = await fe.handle_line(
                '{"graph": "tree:10", "trials": 5}', client="10.0.0.2"
            )
            return first, second, other

        first, second, other = _run(scenario())
        # First spends the only token (then dies on the absent shard —
        # past the limiter); second is rate-limited; a different client
        # has its own bucket.
        assert json.loads(first)["code"] == "shard_unavailable"
        assert json.loads(second)["code"] == "rate_limited"
        assert json.loads(other)["code"] == "shard_unavailable"

    def test_full_queue_sheds_with_overloaded(self):
        fe = _frontend(queue_limit=0)
        out = json.loads(_run(fe.handle_line('{"graph": "tree:10", "trials": 5}')))
        assert out["code"] == "overloaded"
        assert "queue is full" in out["error"]

    def test_held_peak_sheds_fraction_deterministically(self):
        fe = _frontend(shed_threshold=0.85)
        fe.admission.observe(10.0)  # a burst pinned the held peak high

        async def scenario():
            return [
                json.loads(
                    await fe.handle_line('{"graph": "tree:10", "trials": 5}')
                )
                for _ in range(10)
            ]

        results = _run(scenario())
        shed = [r for r in results if r.get("code") == "overloaded"]
        # fraction = 0.85/10 → the first ten decisions all shed.
        assert len(shed) == 10
        assert all("peak-hold load" in r["error"] for r in shed)

    def test_v2_request_gets_v2_shaped_shed(self):
        fe = _frontend(queue_limit=0)
        out = json.loads(
            _run(
                fe.handle_line(
                    '{"v": 2, "graph": "tree:10", '
                    '"precision": {"node_ci": 0.1}, "id": "z"}'
                )
            )
        )
        assert out["v"] == 2
        assert out["error"]["code"] == "overloaded"
        assert out["id"] == "z"

    def test_metrics_flow(self):
        fe = _frontend(queue_limit=0)
        _run(fe.handle_line('{"graph": "tree:10", "trials": 5}'))
        _run(fe.handle_line("{nope"))
        snap = fe.stats_snapshot()
        counters = snap["metrics"]["counters"]
        assert counters["frontend_requests_total"][""] == 2
        assert counters["frontend_shed_total"][""] == 1
        assert sum(counters["frontend_errors_total"].values()) == 2


class TestLineReader:
    @staticmethod
    def _feed(*chunks: bytes, eof: bool = True) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        for chunk in chunks:
            reader.feed_data(chunk)
        if eof:
            reader.feed_eof()
        return reader

    def test_plain_lines(self):
        async def scenario():
            lines = _LineReader(self._feed(b"one\ntwo\n"), max_bytes=1024)
            assert await lines.readline() == ("one", False)
            assert await lines.readline() == ("two", False)
            assert await lines.readline() is None

        _run(scenario())

    def test_trailing_partial_line_at_eof(self):
        async def scenario():
            lines = _LineReader(self._feed(b"tail-no-newline"), max_bytes=1024)
            assert await lines.readline() == ("tail-no-newline", False)
            assert await lines.readline() is None

        _run(scenario())

    def test_oversized_line_resyncs_to_next_request(self):
        async def scenario():
            big = b"x" * 300
            lines = _LineReader(
                self._feed(big + b"\n" + b"ok\n"), max_bytes=100, chunk=64
            )
            item = await lines.readline()
            assert item is not None and item[1] is True
            assert int(item[0]) >= 100  # dropped-byte count
            assert await lines.readline() == ("ok", False)
            assert await lines.readline() is None

        _run(scenario())


@pytest.mark.slow
class TestEndToEnd:
    def test_tcp_sharded_warm_path_and_loadgen(self):
        """Two real shards behind TCP: errors, warm routing, loadgen."""

        async def scenario():
            config = FrontendConfig(
                shards=2,
                shard_jobs=1,
                mode="exact",
                queue_limit=32,
                inherit_shard_stderr=False,
            )
            frontend = Frontend(config, registry=MetricsRegistry())
            ready = asyncio.Event()
            server = asyncio.create_task(
                run_tcp_server(frontend, "127.0.0.1", 0, ready=ready)
            )
            await asyncio.wait_for(ready.wait(), timeout=60)
            port = frontend.bound_port
            assert port

            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def rpc(raw: str) -> dict:
                writer.write(raw.encode() + b"\n")
                await writer.drain()
                return json.loads(
                    await asyncio.wait_for(reader.readline(), timeout=120)
                )

            try:
                # Structured parse errors over the wire.
                assert (await rpc("{nope"))["code"] == "bad_json"
                bad_v = await rpc('{"v": 9, "graph": "tree:40:1"}')
                assert bad_v["error"]["code"] == "unsupported_version"

                # Warm path: the same graph pins to one shard and its
                # second request is a cache hit there.
                req = {
                    "graph": "tree:60:1",
                    "algorithm": "luby_fast",
                    "trials": 30,
                    "seed": 0,
                }
                first = await rpc(json.dumps({**req, "id": "a"}))
                assert "error" not in first, first
                second = await rpc(json.dumps({**req, "id": "b"}))
                assert "error" not in second, second
                assert second["shard"] == first["shard"]
                assert second["cached"] is True
                assert second["trials_run"] == 0
            finally:
                writer.close()
                with contextlib.suppress(ConnectionError, OSError):
                    await writer.wait_closed()

            # Open-loop loadgen over the same front end.
            requests = [
                {
                    "graph": "tree:60:1",
                    "algorithm": "luby_fast",
                    "trials": 30,
                    "seed": 0,
                }
                for _ in range(10)
            ]
            report = await run_loadgen("127.0.0.1", port, requests, rate=50.0)
            assert isinstance(report, LoadReport)
            assert report.offered == 10
            assert report.ok == 10
            assert report.shed == 0
            assert report.cached >= 9  # warmed above; all but races cached
            assert len(set(report.shards_seen)) == 1  # one graph, one shard

            counters = frontend.stats_snapshot()["metrics"]["counters"]
            assert counters["frontend_admitted_total"][""] >= 12

            server.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await server

        _run(scenario())
