"""Shard processes: the existing ``serve`` loop behind a pipe.

A shard is literally ``python -m repro serve`` as an asyncio
subprocess — same newline-delimited JSON in, same one-response-line-
per-request-line out, same per-process Estimator with its own workers,
result cache, and evidence plane.  No new protocol: the front end
writes request lines to the shard's stdin and reads response lines
from its stdout.

Because the serve loop answers strictly in order, responses are
matched FIFO: ``submit`` appends a future to a deque and the reader
task resolves the leftmost future per stdout line.  Queue depth is the
number of unresolved futures — the signal the admission controller
normalizes against ``queue_limit``.

A shard that exits (crash, OOM-kill) fails its in-flight requests with
:class:`ShardUnavailable` and is respawned up to ``max_restarts``
times; past the budget the shard stays down and every submit fails
fast with the same structured error code.
"""

from __future__ import annotations

import asyncio
import contextlib
import sys
from collections import deque

__all__ = ["ShardClient", "ShardUnavailable", "shard_argv"]


class ShardUnavailable(RuntimeError):
    """The owning shard process is not running (crashed or exhausted)."""


def shard_argv(
    *,
    jobs: int = 1,
    cache_size: int = 128,
    mode: str = "auto",
    include_counts: bool = True,
    log_level: str | None = None,
) -> list[str]:
    """Command line for one shard: ``python -m repro serve ...``."""
    argv = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--jobs",
        str(jobs),
        "--cache-size",
        str(cache_size),
    ]
    if mode != "auto":
        argv += ["--mode", mode]
    if not include_counts:
        argv.append("--no-counts")
    if log_level:
        argv += ["--log-level", log_level]
    return argv


class ShardClient:
    """One shard subprocess with FIFO request/response matching."""

    def __init__(
        self,
        index: int,
        argv: list[str],
        *,
        queue_limit: int = 64,
        max_restarts: int = 3,
        inherit_stderr: bool = True,
    ) -> None:
        self.index = index
        self.argv = list(argv)
        self.queue_limit = int(queue_limit)
        self.max_restarts = int(max_restarts)
        self.inherit_stderr = inherit_stderr
        self.restarts = 0
        self._proc: asyncio.subprocess.Process | None = None
        self._pending: deque[asyncio.Future[str]] = deque()
        self._reader: asyncio.Task[None] | None = None
        self._closing = False

    @property
    def depth(self) -> int:
        """Requests submitted to this shard and not yet answered."""
        return len(self._pending)

    @property
    def load(self) -> float:
        """Queue depth normalized by capacity (1.0 == full)."""
        return self.depth / self.queue_limit if self.queue_limit else 0.0

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.returncode is None

    async def start(self) -> None:
        if self.alive:
            return
        self._proc = await asyncio.create_subprocess_exec(
            *self.argv,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=None if self.inherit_stderr else asyncio.subprocess.DEVNULL,
            # Response lines carry per-node count vectors for large
            # graphs; the default 64 KiB StreamReader limit truncates.
            limit=64 * 1024 * 1024,
        )
        self._reader = asyncio.create_task(
            self._read_loop(self._proc), name=f"shard-{self.index}-reader"
        )

    async def _read_loop(self, proc: asyncio.subprocess.Process) -> None:
        assert proc.stdout is not None
        try:
            while True:
                line = await proc.stdout.readline()
                if not line:
                    break
                if not self._pending:
                    continue  # shard wrote an unsolicited line; drop it
                fut = self._pending.popleft()
                if not fut.done():
                    fut.set_result(line.decode().rstrip("\n"))
        finally:
            exc = ShardUnavailable(
                f"shard {self.index} exited with in-flight requests"
            )
            while self._pending:
                fut = self._pending.popleft()
                if not fut.done():
                    fut.set_exception(exc)
            if not self._closing and self.restarts < self.max_restarts:
                self.restarts += 1
                with contextlib.suppress(Exception):
                    await self.start()

    async def submit(self, line: str) -> str:
        """Send one request line; resolves with the shard's response line.

        Raises :class:`ShardUnavailable` when the process is down (or
        dies mid-flight) — the server maps that onto the
        ``shard_unavailable`` error code.
        """
        if not self.alive or self._proc is None or self._proc.stdin is None:
            raise ShardUnavailable(f"shard {self.index} is not running")
        fut: asyncio.Future[str] = asyncio.get_running_loop().create_future()
        self._pending.append(fut)
        try:
            self._proc.stdin.write(line.encode() + b"\n")
            await self._proc.stdin.drain()
        except (ConnectionError, RuntimeError) as exc:
            if fut in self._pending:
                self._pending.remove(fut)
            raise ShardUnavailable(
                f"shard {self.index} pipe closed: {exc}"
            ) from exc
        return await fut

    async def close(self) -> None:
        """Stop the shard: stdin EOF lets the serve loop exit cleanly."""
        self._closing = True
        proc, self._proc = self._proc, self._proc
        if proc is None:
            return
        if proc.stdin is not None:
            with contextlib.suppress(ConnectionError, RuntimeError):
                proc.stdin.close()
        if proc.returncode is None:
            try:
                await asyncio.wait_for(proc.wait(), timeout=10.0)
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()
        if self._reader is not None:
            with contextlib.suppress(asyncio.CancelledError):
                await self._reader
