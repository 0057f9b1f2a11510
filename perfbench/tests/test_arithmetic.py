"""The benchmark's own arithmetic: percentile choice, self time, due-time
latency (including under a real stall of the open-loop driver)."""

import asyncio
import json
import re
import time
from pathlib import Path

import pytest

import layers
import run
import stats
import loadgen
from loadgen import open_loop


# ---- percentiles --------------------------------------------------------
def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    "n, expected",
    [
        (39, None),  # p75 would have 9 beyond it
        (40, 75.0),
        (99, 75.0),  # p90 would have 9 beyond it
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    q = stats.tail_percentile(n)
    assert q == expected
    if q is not None:
        assert stats.beyond(n, q) >= stats.MIN_BEYOND
        ordered = list(range(n))
        assert sum(1 for v in ordered if v > stats.percentile(ordered, q)) == stats.beyond(n, q)


def test_summarize_falls_back_to_max_with_few_samples():
    summary = stats.summarize([3.0, 1.0, 2.0])
    assert summary == {"n": 3, "p50": 2.0, "tail": 3.0, "tail_q": 100.0}
    assert stats.summarize([])["n"] == 0


# ---- self time ------------------------------------------------------------
def test_self_time_with_nested_and_overlapping_children():
    span = (0, 100)
    children = [
        (10, 30),
        (12, 15),  # nested inside the first child: not counted twice
        (20, 40),  # overlaps the first child
        (50, 60),
        (90, 120),  # runs past the span's end: clipped
        (130, 140),  # outside the span: ignored
    ]
    assert stats.covered(span, children) == 30 + 10 + 10
    assert stats.self_time(span, children) == 50


def test_self_time_without_children_is_duration():
    assert stats.self_time((5, 9), []) == 4
    assert stats.union_length([(0, 1), (1, 2)]) == 2


# ---- due-time latency -------------------------------------------------------
def test_due_latencies_count_generator_lateness():
    # The generator stalled: the second request went out 0.3 s late.
    records = [(0.0, 0.0, 0.01), (0.1, 0.4, 0.41), (0.2, 0.4, None)]
    latencies, lateness = stats.due_latencies(records)
    assert latencies == pytest.approx([0.01, 0.31])  # no reply, no latency
    assert lateness == pytest.approx([0.0, 0.3, 0.2])


async def _echo(reader, writer):
    while line := await reader.readline():
        rid = json.loads(line)["id"]
        writer.write(json.dumps({"id": rid}).encode() + b"\n")
        await writer.drain()
    writer.close()


def test_open_loop_times_from_due_time_through_a_stall():
    stall_s, spacing = 0.2, 0.01

    async def scenario():
        server = await asyncio.start_server(_echo, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        schedule = [(i * spacing, f"r{i}", json.dumps({"id": f"r{i}"})) for i in range(30)]
        # Block the driver's own event loop 50 ms into the schedule.
        asyncio.get_running_loop().call_later(0.05 + 0.05, time.sleep, stall_s)
        async with server:
            return await open_loop("127.0.0.1", port, schedule, drain_s=2.0)

    outcomes, start, end = loadgen.run(scenario())
    assert all(o.replied is not None for o in outcomes)
    late = [o for o in outcomes if o.sent - o.due > stall_s / 2]
    assert late, "requests due during the stall must go out late"
    for o in late:
        # From the due time the stall is visible; from the write it is not.
        assert o.replied - o.due >= o.sent - o.due > stall_s / 2
        assert o.replied - o.sent < stall_s / 2
    assert start == outcomes[0].due and end >= outcomes[-1].replied


def test_open_loop_marks_missing_replies():
    async def silent(reader, writer):
        await reader.read()
        writer.close()

    async def scenario():
        server = await asyncio.start_server(silent, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        async with server:
            return await open_loop(
                "127.0.0.1", port, [(0.0, "a", '{"id": "a"}')], drain_s=0.2
            )

    outcomes, start, end = loadgen.run(scenario())
    assert outcomes[0].replied is None and outcomes[0].reply() is None
    assert end == pytest.approx(start + 0.2, abs=1e-6)


# ---- the declared metrics are the printed ones ------------------------------
def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    assert all(name.match(m["name"]) for m in spec["end_to_end"] + spec["per_layer"])
