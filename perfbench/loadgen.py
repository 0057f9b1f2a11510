"""The benchmark's open-loop driver: one asyncio loop, at most 2 connections.

Requests leave on a fixed schedule whatever the server does, and each
one is timed from when it was *due*, not from when it was written: if
the generator itself falls behind (a stall in this process, a slow
write), the wait it imposes on later requests stays in their latency,
and how late it ran is reported on its own.  A request with no reply by
the deadline has no latency and counts as failed.

Replies are matched to requests by their ``"id"``; they are kept raw
and decoded after the run so that decoding never delays the timestamps
of replies that arrive behind them.

:func:`run` drives a coroutine on a ``select``-based event loop: its
timeouts have microsecond resolution, where epoll's are rounded up to the
next millisecond, which alone would send every request up to 1 ms late.
"""

from __future__ import annotations

import asyncio
import json
import re
import selectors
import time
from dataclasses import dataclass

_ID = re.compile(rb'"id": "([^"]+)"')

#: Reply lines carry per-node count vectors; the default 64 KiB stream
#: limit would truncate them on large graphs.
_STREAM_LIMIT = 64 * 1024 * 1024


@dataclass
class Outcome:
    """One scheduled request and what became of it (monotonic seconds)."""

    rid: str
    line: str
    due: float
    sent: float | None = None
    replied: float | None = None
    raw: bytes | None = None

    def reply(self) -> dict | None:
        """The decoded reply, or None if none arrived."""
        return None if self.raw is None else json.loads(self.raw)


def run(coro):
    """Run *coro* to completion on a fresh ``select``-based event loop."""
    factory = lambda: asyncio.SelectorEventLoop(selectors.SelectSelector())  # noqa: E731
    with asyncio.Runner(loop_factory=factory) as runner:
        return runner.run(coro)


async def _read_replies(
    reader: asyncio.StreamReader,
    pending: dict[str, Outcome],
    all_in: asyncio.Event,
) -> None:
    while True:
        raw = await reader.readline()
        if not raw:
            return
        now = time.monotonic()
        match = _ID.search(raw)
        outcome = pending.pop(match.group(1).decode(), None) if match else None
        if outcome is None:
            continue
        outcome.replied, outcome.raw = now, raw
        if not pending:
            all_in.set()


async def open_loop(
    host: str,
    port: int,
    schedule: list[tuple[float, str, str]],
    *,
    drain_s: float,
    connections: int = 2,
    lead_s: float = 0.05,
) -> tuple[list[Outcome], float, float]:
    """Send ``(offset_s, rid, line)`` requests on schedule; collect replies.

    Returns the outcomes in schedule order plus the window's start (the
    first due time) and end (the last reply, or the deadline when some
    request never got one).  Requests are spread round-robin over
    *connections* connections.  The deadline is the last due time plus
    *drain_s*.
    """
    streams = [
        await asyncio.open_connection(host, port, limit=_STREAM_LIMIT)
        for _ in range(connections)
    ]
    t0 = time.monotonic() + lead_s
    outcomes = [Outcome(rid, line, t0 + off) for off, rid, line in schedule]
    pending = {o.rid: o for o in outcomes}
    all_in = asyncio.Event()
    readers = [
        asyncio.create_task(_read_replies(reader, pending, all_in))
        for reader, _ in streams
    ]
    try:
        for i, outcome in enumerate(outcomes):
            delay = outcome.due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            writer = streams[i % connections][1]
            writer.write(outcome.line.encode() + b"\n")
            outcome.sent = time.monotonic()
            await writer.drain()
        deadline = (outcomes[-1].due if outcomes else t0) + drain_s
        try:
            await asyncio.wait_for(all_in.wait(), max(0.0, deadline - time.monotonic()))
            end = max(o.replied for o in outcomes)
        except asyncio.TimeoutError:
            end = deadline
    finally:
        for _, writer in streams:
            writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in streams:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
    return outcomes, t0, end
