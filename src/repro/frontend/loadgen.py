"""Open-loop load generation against the TCP front end.

``repro loadgen`` (and the ``frontend`` bench case) drive the front end
the way real traffic does: requests depart on a fixed-rate **open-loop**
schedule — arrival times do not wait for responses, so a slow server
faces a growing backlog exactly as it would in production (closed-loop
clients accidentally rate-limit themselves to the server's speed and
hide overload).  The report counts outcomes: successes (and how many
were cached, per shard), sheds, rate limits, and other structured
errors.  It measures no time; ``perfbench/`` is the latency instrument.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = ["LoadReport", "run_loadgen"]


@dataclass
class LoadReport:
    """Outcome counts of one open-loop run."""

    offered: int = 0
    completed: int = 0
    ok: int = 0
    shed: int = 0
    rate_limited: int = 0
    errors: int = 0
    cached: int = 0
    shards_seen: dict[str, int] = field(default_factory=dict)

    @property
    def shed_rate(self) -> float:
        """Sheds (overloaded + rate_limited) over offered requests."""
        denied = self.shed + self.rate_limited
        return denied / self.offered if self.offered else 0.0

    def to_json(self) -> dict[str, Any]:
        return {
            "offered": self.offered,
            "completed": self.completed,
            "ok": self.ok,
            "shed": self.shed,
            "rate_limited": self.rate_limited,
            "errors": self.errors,
            "cached": self.cached,
            "shed_rate": round(self.shed_rate, 4),
            "shards_seen": dict(sorted(self.shards_seen.items())),
        }

    def format(self) -> str:
        j = self.to_json()
        lines = [
            f"offered {j['offered']} requests, completed {j['completed']}",
            f"ok {j['ok']}  shed {j['shed']}  rate-limited "
            f"{j['rate_limited']}  errors {j['errors']}  cached {j['cached']}"
            f"  shed-rate {100 * j['shed_rate']:.1f}%",
        ]
        if j["shards_seen"]:
            spread = "  ".join(
                f"shard{k}:{v}" for k, v in j["shards_seen"].items()
            )
            lines.append(f"responses by shard: {spread}")
        return "\n".join(lines)


def _classify(report: LoadReport, obj: dict[str, Any]) -> None:
    err = obj.get("error")
    if err is None:
        report.ok += 1
        if obj.get("cached"):
            report.cached += 1
        if "shard" in obj:
            key = str(obj["shard"])
            report.shards_seen[key] = report.shards_seen.get(key, 0) + 1
        return
    code = err.get("code") if isinstance(err, dict) else obj.get("code")
    if code == "overloaded":
        report.shed += 1
    elif code == "rate_limited":
        report.rate_limited += 1
    else:
        report.errors += 1


async def run_loadgen(
    host: str,
    port: int,
    requests: list[dict[str, Any]],
    *,
    rate: float,
    timeout_s: float = 60.0,
) -> LoadReport:
    """Fire *requests* at *rate* req/s (open loop) and collect the report.

    Each request is stamped with a unique ``id`` (``lg-<n>``); the
    pipelined responses may arrive out of order.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    reader, writer = await asyncio.open_connection(host, port)
    report = LoadReport()
    done = asyncio.Event()

    async def receive() -> None:
        while report.offered < len(requests) or report.completed < report.offered:
            line = await reader.readline()
            if not line:
                break
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                report.errors += 1
                report.completed += 1
                continue
            report.completed += 1
            _classify(report, obj)
        done.set()

    receiver = asyncio.create_task(receive())
    start = time.perf_counter()
    interval = 1.0 / rate
    for i, req in enumerate(requests):
        delay = start + i * interval - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        report.offered += 1
        writer.write((json.dumps({**req, "id": f"lg-{i}"}) + "\n").encode())
        await writer.drain()

    try:
        await asyncio.wait_for(done.wait(), timeout=timeout_s)
    except asyncio.TimeoutError:
        pass
    finally:
        receiver.cancel()
        try:
            await receiver
        except (asyncio.CancelledError, ConnectionError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return report
