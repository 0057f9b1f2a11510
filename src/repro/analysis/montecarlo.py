"""Monte-Carlo trial running: reusable pool primitives + ``run_trials``.

The evaluation of Section IX is embarrassingly parallel: independent runs
of a randomized algorithm on a fixed graph.  Seeds are spawned with
``SeedSequence.spawn`` (the collision-free idiom for process pools) and
each worker accumulates a join-count vector; counts are summed into a
:class:`~repro.analysis.fairness.JoinEstimate`.

This module provides the layered primitives the estimation service
(:mod:`repro.service`) builds on:

* :func:`normalize_jobs` — the **single source of truth** for ``n_jobs``
  semantics, shared by ``run_trials``, the CLI ``--jobs`` flag, the
  experiment harnesses, and the service;
* :class:`WorkerSet` — worker processes started once, one pipe each:
  each chunk packet names its ``(algorithm, graph)``, so one set runs
  every pair, and each worker keeps the graphs it was sent, so a graph
  crosses once per worker;
* :class:`TrialPool` — one ``(algorithm, graph)`` pair on a worker set,
  its own or a borrowed one.  Every chunk takes one path — exact or
  vectorized, inline or in a worker, through ``submit_chunk`` or
  ``run``: :func:`_execute` runs it under
  :func:`~repro.obs.remote.run_chunk_with_telemetry`, which ships the
  chunk's spans and metric deltas back with its counts whenever
  observability is on (:func:`~repro.obs.metrics.set_enabled`);
* :func:`run_trials` — the classic cold-path API: build a pool, run one
  request, tear the pool down.

``n_jobs`` semantics (canonical)
--------------------------------
``1``
    run inline in the calling process (no subprocesses);
``0`` or negative
    use all available cores (``os.cpu_count()``);
``k > 1``
    use ``k`` worker processes.

Every entry point that accepts a job count (``run_trials(n_jobs=...)``,
``python -m repro ... --jobs``, experiment harness ``n_jobs=``,
``Estimator(n_jobs=...)``) funnels through :func:`normalize_jobs`.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from ..core.result import MISAlgorithm
from ..graphs.graph import StaticGraph
from ..obs.bridge import trial_rounds_histogram
from ..obs.logging import get_logger
from ..obs.metrics import get_registry
from ..obs.remote import (
    ChunkResult,
    RemoteTelemetry,
    current_trace_context,
    new_chunk_id,
    run_chunk_with_telemetry,
)
from ..runtime.rng import SeedLike, spawn_trial_seeds
from .fairness import JoinEstimate

__all__ = [
    "run_trials",
    "estimate_join_probabilities",
    "normalize_jobs",
    "resolve_start_method",
    "TrialPool",
    "WorkerLost",
    "WorkerSet",
    "chunk_counts",
    "vector_chunk_counts",
]

_log = get_logger("repro.pool")

#: Graphs a worker keeps, least recently used first out.
_MEMO_SIZE = 8
#: Seconds a hard close gives SIGTERMed workers before SIGKILL.
_TERM_GRACE_S = 1.0


def normalize_jobs(n_jobs: int, limit: int | None = None) -> int:
    """Resolve an ``n_jobs`` request to an effective worker count.

    ``1`` means inline (no subprocesses); ``0`` or negative means all
    available cores; ``k > 1`` means ``k`` workers.  When *limit* is given
    (e.g. the trial count) the result is clamped to it, never below 1.
    """
    jobs = (os.cpu_count() or 1) if n_jobs <= 0 else int(n_jobs)
    if limit is not None:
        jobs = min(jobs, max(1, int(limit)))
    return max(1, jobs)


def chunk_counts(
    algorithm: MISAlgorithm,
    graph: StaticGraph,
    seeds: Sequence[np.random.SeedSequence],
) -> np.ndarray:
    """Join counts over one chunk of per-trial seeds (exact stream layout).

    This is *the* unit of work: each trial gets its own generator built
    from its own spawned seed, so any partition of the seed list — serial,
    strided across a pool, or interleaved by the service scheduler —
    produces bit-identical totals.  An algorithm with a ``union_sweep``
    runs its trials as disjoint unions whose copies draw from their own
    trials' generators (:func:`repro.fast.batched.exact_counts`); any
    other runs them one at a time.
    """
    # Registry-family resolution is hoisted out of the per-trial loop and
    # observations are flushed in one batch per chunk: the per-trial cost
    # is a list append, keeping instrumentation under the benchmarked 5%
    # overhead bound.
    rounds_hist = trial_rounds_histogram(algorithm.name)
    trial_rounds: list[int] = []
    if getattr(algorithm, "union_sweep", None) is not None:
        # Imported lazily, as in vector_chunk_counts below.
        from ..fast.batched import exact_counts

        counts, union_rounds = exact_counts(algorithm, graph, seeds)
        if rounds_hist is not None:
            for rounds in union_rounds:
                trial_rounds.extend(int(r) for r in rounds if r)
    else:
        counts = np.zeros(graph.n, dtype=np.int64)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            result = algorithm.run(graph, rng)
            if rounds_hist is not None:
                rounds = result.rounds or result.info.get("iterations", 0)
                if rounds:
                    trial_rounds.append(int(rounds))
            counts += result.membership
    if rounds_hist is not None:
        rounds_hist.observe_many(trial_rounds)
    return counts


def vector_chunk_counts(
    algorithm: MISAlgorithm,
    graph: StaticGraph,
    seed: np.random.SeedSequence,
    trials: int,
) -> np.ndarray:
    """Join counts over *trials* runs via the disjoint-union batched kernel.

    Statistically equivalent to :func:`chunk_counts` (same per-trial
    distribution, different stream layout) and several times faster on
    small/medium graphs.  Only available for algorithms with a
    ``union_sweep`` — see :func:`repro.fast.batched.batched_trials`.
    """
    # Imported lazily: repro.fast.batched imports repro.analysis.fairness,
    # and this module is imported during repro.analysis package init.
    from ..fast.batched import batched_trials

    return batched_trials(algorithm, graph, trials, seed).counts


def resolve_start_method(context: str | None = None) -> str | None:
    """Resolve the multiprocessing start method for trial pools.

    Precedence: an explicit *context* argument, then the ``REPRO_MP_START``
    environment variable (``fork``/``spawn``/``forkserver``), then ``fork``
    where the platform offers it (cheapest: workers start with the
    parent's imports).  ``None`` falls through to the platform default.
    """
    if context is not None:
        return context
    import multiprocessing as mp

    available = mp.get_all_start_methods()
    requested = os.environ.get("REPRO_MP_START", "").strip().lower()
    if requested:
        if requested not in available:
            raise ValueError(
                f"REPRO_MP_START={requested!r} is not available here "
                f"(choices: {', '.join(available)})"
            )
        return requested
    return "fork" if "fork" in available else None


def _execute(
    algorithm: MISAlgorithm, graph: StaticGraph, packet: tuple
) -> ChunkResult:
    """Run one chunk *packet* under the telemetry harness.

    This is the one chunk path: exact or vectorized, inline or in a
    worker.  The packet is ``(trace context, chunk id, chunk,
    vectorized)``, where *chunk* is a seed list for an exact chunk and
    a ``(seed, trials)`` pair for a vectorized one.  The engine entry
    points are module globals, looked up at call time.
    """
    ctx, chunk_id, chunk, vectorized = packet
    if vectorized:
        seed, trials = chunk
        work = partial(vector_chunk_counts, algorithm, graph, seed, trials)
    else:
        trials = len(chunk)
        work = partial(chunk_counts, algorithm, graph, chunk)
    return run_chunk_with_telemetry(
        work,
        ctx,
        chunk_id,
        algorithm=algorithm.name,
        trials=trials,
        vectorized=vectorized,
    )


def _lru_put(memo: OrderedDict, key: str, value: Any) -> None:
    """Store *value* as *key*'s entry, the most recent of at most
    ``_MEMO_SIZE``; the worker's graph memo and the set's copy of it
    evict alike."""
    memo[key] = value
    memo.move_to_end(key)
    if len(memo) > _MEMO_SIZE:
        memo.popitem(last=False)


def _answer(graphs: OrderedDict, message: tuple) -> tuple:
    """A worker's reply to one ``(algorithm, content hash, graph or
    None, chunk packet)`` *message*: ``(ok, ChunkResult or exception)``.
    ``None`` names a graph this worker was sent before."""
    try:
        algorithm, key, graph, packet = message
        if graph is None:
            graph = graphs[key]
        else:
            # Later chunks of any pool read this copy: none may write it.
            for array in (graph.edges, *graph.__dict__.get("_csr", ())):
                array.setflags(write=False)
        _lru_put(graphs, key, graph)
        return True, _execute(algorithm, graph, packet)
    except Exception as exc:  # noqa: BLE001 - the packet's error callback
        return False, exc


def _serve(conn: Any) -> None:
    """A worker process: answer the messages on *conn* until ``None``
    or the set's end closes, keeping the graphs it was sent."""
    import signal
    from multiprocessing.reduction import ForkingPickler

    # A terminal Ctrl-C signals the whole process group; the parent alone
    # handles it by closing the set.  Nor may a forked worker run the
    # parent's SIGTERM handler.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    graphs: OrderedDict[str, StaticGraph] = OrderedDict()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        except Exception as exc:  # noqa: BLE001 - a message that does not unpickle
            reply = (False, exc)
        else:
            if message is None:
                return
            reply = _answer(graphs, message)
        try:
            data = ForkingPickler.dumps(reply)
        except Exception as exc:  # noqa: BLE001 - name the problem instead
            error = RuntimeError(f"chunk reply does not pickle: {exc!r}")
            data = ForkingPickler.dumps((False, error))
        try:
            conn.send_bytes(data)
        except OSError:
            return


def _call(callback: Callable[[Any], None], value: Any) -> None:
    """Run a packet's callback; the reader thread outlives its errors."""
    try:
        callback(value)
    except Exception:  # noqa: BLE001 - logged, not fatal
        import traceback

        _log.error("pool_callback_failed", traceback=traceback.format_exc())


class WorkerLost(RuntimeError):
    """A chunk's worker process died: its second worker as well, or the
    last worker of its set."""


@dataclass(eq=False)
class _Task:
    """A packet queued or running, with its callbacks."""

    packet: tuple
    callback: Callable[[ChunkResult], None]
    error_callback: Callable[[BaseException], None]
    resent: bool = False


@dataclass(eq=False)
class _Worker:
    """One worker process, the set's end of its pipe, the packet it runs
    and the set's copy of its graph memo (content hashes, LRU order)."""

    process: Any
    conn: Any
    task: _Task | None = None
    held: OrderedDict = field(default_factory=OrderedDict)
    eof: bool = False


class WorkerSet:
    """The processes that run chunk packets, started once.

    A set holds no algorithm and no graph, so one set serves every
    :class:`TrialPool` opened on it.  ``workers`` follows
    :func:`normalize_jobs`; with one the set starts no processes and
    packets run inline, which on few-core hosts beats oversubscribing.

    Otherwise each worker is a daemonic process on a duplex pipe of its
    own and runs at most one packet; the others wait here in FIFO
    order.  A worker keeps the last ``_MEMO_SIZE`` graphs it was sent,
    by content hash, and the set keeps a copy of that memo, so a graph
    crosses a pipe only to a worker that lacks it.  One reader thread
    delivers every reply and notices every worker's exit.  A dead
    worker's replies are still delivered; its unanswered packet goes
    once more to the next free worker, under the same chunk ID, and
    fails with :class:`WorkerLost` if that worker dies too, as every
    packet does once no worker is left.  No replacement is started:
    forking while this process's threads run can copy a held lock into
    the child.
    """

    def __init__(self, workers: int = 1, context: str | None = None) -> None:
        self.workers = normalize_jobs(workers)
        self._workers: list[_Worker] = []
        self._queue: deque[_Task] = deque()
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._closed = False  # no new packets
        self._stopping = False  # exits are expected; nothing is re-sent
        self._reader: threading.Thread | None = None
        if self.workers == 1:
            return
        import multiprocessing as mp

        self._lost = get_registry().counter(
            "pool_workers_lost_total",
            "Worker processes that died while their set was open",
        )
        ctx = mp.get_context(resolve_start_method(context))
        for _ in range(self.workers):
            conn, child = ctx.Pipe()
            process = ctx.Process(target=_serve, args=(child,), daemon=True)
            process.start()
            child.close()
            self._workers.append(_Worker(process, conn))
        # Started after the forks: no child inherits a lock it holds.
        self._reader = threading.Thread(
            target=self._read, name="repro-pool-reader", daemon=True
        )
        self._reader.start()

    def submit(
        self,
        packet: tuple,
        callback: Callable[[ChunkResult], None],
        error_callback: Callable[[BaseException], None],
    ) -> None:
        """Run one ``(algorithm, content hash, graph, chunk packet)``
        *packet*; *callback* gets its result later, on the reader
        thread, and before this returns inline."""
        if self._reader is None:
            algorithm, _, graph, chunk_packet = packet
            try:
                result = _execute(algorithm, graph, chunk_packet)
            except Exception as exc:  # noqa: BLE001 - forwarded to owner
                error_callback(exc)
                return
            callback(result)
            return
        with self._lock:
            if self._closed:
                raise RuntimeError("worker set is closed")
            self._queue.append(_Task(packet, callback, error_callback))
            failed = self._dispatch()
        for task, exc in failed:
            _call(task.error_callback, exc)

    def map(self, packets: list[tuple]) -> list[ChunkResult]:
        """Run *packets* through :meth:`submit`; wait for every result."""
        from concurrent.futures import Future

        futures = [Future() for _ in packets]
        for packet, future in zip(packets, futures):
            self.submit(packet, future.set_result, future.set_exception)
        return [future.result() for future in futures]

    @property
    def processes(self) -> list:
        """The live worker ``Process`` objects (empty inline)."""
        with self._lock:
            return [worker.process for worker in self._workers]

    def close(self, wait: bool = True) -> None:
        """Stop the processes and join them.  With ``wait``, once no
        packet is queued or running; without, at once, dropping every
        packet: SIGTERM, and SIGKILL for a worker still alive
        ``_TERM_GRACE_S`` later.  Idempotent."""
        if self._reader is None:
            return
        with self._lock:
            self._closed = True
            while wait and (
                self._queue or any(w.task is not None for w in self._workers)
            ):
                self._changed.wait()
            self._stopping = True
            self._queue.clear()
            workers = list(self._workers)
            if wait:
                for worker in workers:
                    try:
                        worker.conn.send(None)
                    except OSError:  # it exited; the reader buries it
                        pass
        if threading.current_thread() is self._reader:
            return
        if not wait:
            for worker in workers:
                worker.process.terminate()
            self._reader.join(_TERM_GRACE_S)
            for process in self.processes:
                process.kill()
        self._reader.join()

    # ---- held by the lock ---------------------------------------------- #
    def _dispatch(self) -> list[tuple[_Task, BaseException]]:
        """Hand queued packets to idle workers, in order.  Returns the
        packets that failed, for error callbacks outside the lock."""
        from multiprocessing.reduction import ForkingPickler

        if not self._workers:
            lost = WorkerLost("no worker process is left")
            failed = [(task, lost) for task in self._queue]
            self._queue.clear()
            return failed
        failed = []
        for worker in self._workers:
            while worker.task is None and not worker.eof and self._queue:
                task = self._queue.popleft()
                algorithm, key, graph, packet = task.packet
                fresh = key not in worker.held
                message = (algorithm, key, graph if fresh else None, packet)
                try:
                    data = ForkingPickler.dumps(message)
                except Exception as exc:  # noqa: BLE001 - the packet fails
                    failed.append((task, exc))
                    continue
                _lru_put(worker.held, key, None)
                worker.task = task
                try:
                    worker.conn.send_bytes(data)
                except OSError:  # it died; its exit re-sends the packet
                    pass
        return failed

    # ---- the reader thread --------------------------------------------- #
    def _read(self) -> None:
        """Deliver replies and bury exited workers until none is left."""
        from multiprocessing.connection import wait

        while True:
            with self._lock:
                workers = list(self._workers)
            if not workers:
                return
            ready = set(
                wait(
                    [w.conn for w in workers if not w.eof]
                    + [w.process.sentinel for w in workers]
                )
            )
            for worker in workers:
                if worker.conn in ready:
                    self._receive(worker)
                if worker.process.sentinel in ready:
                    self._bury(worker)

    def _receive(self, worker: _Worker) -> None:
        """Deliver the reply waiting on *worker*'s pipe."""
        try:
            ok, value = worker.conn.recv()
        except (EOFError, OSError):  # it exited; its sentinel says so
            worker.eof = True
            return
        except Exception as exc:  # noqa: BLE001 - a reply that does not unpickle
            ok, value = False, RuntimeError(f"chunk reply does not unpickle: {exc!r}")
        with self._lock:
            task, worker.task = worker.task, None
            if not ok:
                # It may lack what it was sent; an empty copy stays true.
                worker.held.clear()
            failed = self._dispatch()
            self._changed.notify_all()
        _call(task.callback if ok else task.error_callback, value)
        for lost, exc in failed:
            _call(lost.error_callback, exc)

    def _bury(self, worker: _Worker) -> None:
        """Retire an exited *worker*: deliver what it sent, then re-send
        or fail the packet it held."""
        while not worker.eof and worker.conn.poll():
            self._receive(worker)
        worker.process.join()
        with self._lock:
            self._workers.remove(worker)
            worker.conn.close()
            task, worker.task = worker.task, None
            lost = not self._stopping
            resent = lost and task is not None and not task.resent
            failed = []
            if resent:
                task.resent = True
                self._queue.appendleft(task)
            elif lost and task is not None:
                pid = worker.process.pid
                failed.append((task, WorkerLost(f"chunk lost with its second worker, pid {pid}")))
            if lost:
                failed += self._dispatch()
            self._changed.notify_all()
        if lost:
            self._lost.inc()
            _log.warning(
                "worker_lost",
                pid=worker.process.pid,
                exitcode=worker.process.exitcode,
                resent=resent,
            )
        for task, exc in failed:
            _call(task.error_callback, exc)


class TrialPool:
    """One ``(algorithm, graph)`` pair on a :class:`WorkerSet`.

    *workers* is a count, and the pool starts and owns a set of that
    many, or a set the pool borrows, which :meth:`close` leaves
    running.  On worker processes the graph travels pickled, with the
    caches it holds here (its content hash always, its CSR once built),
    once to each worker that runs a chunk of it; the worker keeps it for
    later chunks of every pool on the set.  A
    chunk's telemetry is absorbed by *telemetry* when one is attached,
    and dropped otherwise.
    """

    def __init__(
        self,
        algorithm: MISAlgorithm,
        graph: StaticGraph,
        workers: int | WorkerSet = 1,
        context: str | None = None,
        telemetry: RemoteTelemetry | None = None,
    ) -> None:
        self.algorithm = algorithm
        self.graph = graph
        self.telemetry = telemetry
        self._owned = not isinstance(workers, WorkerSet)
        self._set = WorkerSet(workers, context) if self._owned else workers
        self.workers = self._set.workers
        # Workers keep graphs by content hash.
        self._key = graph.content_hash() if self.workers > 1 else None
        _log.info(
            "pool_created",
            algorithm=algorithm.name,
            graph_n=graph.n,
            workers=self.workers,
            inline=self.workers == 1,
        )

    def _packet(self, chunk: Any, vectorized: bool) -> tuple:
        """The :meth:`WorkerSet.submit` packet of *chunk*: this pool's
        algorithm, graph key and graph, the ambient trace position and a
        fresh chunk ID."""
        if not vectorized:
            chunk = list(chunk)
        packet = (current_trace_context(), new_chunk_id(), chunk, vectorized)
        return (self.algorithm, self._key, self.graph, packet)

    def _value(self, result: ChunkResult) -> np.ndarray:
        """The chunk's counts; its telemetry goes to the merge point."""
        if self.telemetry is None:
            return result.value
        return self.telemetry.absorb(result)

    # ------------------------------------------------------------------ #
    # chunk execution
    # ------------------------------------------------------------------ #
    def submit_chunk(
        self,
        chunk: Sequence[np.random.SeedSequence] | tuple[np.random.SeedSequence, int],
        vectorized: bool,
        callback: Callable[[np.ndarray], None],
        error_callback: Callable[[BaseException], None],
    ) -> None:
        """Dispatch one chunk; invoke *callback* with its count vector.

        An exact *chunk* is a seed list (see :func:`chunk_counts`), a
        vectorized one a ``(seed, trials)`` pair (see
        :func:`vector_chunk_counts`).  On worker processes this is
        non-blocking; inline, the chunk runs in the calling thread
        before this returns, which keeps the scheduler's dispatch loop
        single-pathed.
        """
        self._set.submit(
            self._packet(chunk, vectorized),
            callback=lambda result: callback(self._value(result)),
            error_callback=error_callback,
        )

    def run(self, trials: int, seed: SeedLike = None) -> JoinEstimate:
        """Run *trials* independent executions on the worker set.

        Bit-identical to serial execution with the same seed: the same
        spawned per-trial seed sequences are used, merely partitioned
        across workers.
        """
        if trials <= 0:
            raise ValueError("trials must be positive")
        seeds = spawn_trial_seeds(seed, trials)
        # Workers take strided slices, four per worker (none empty).
        k = self.workers * 4 if self.workers > 1 else 1
        packets = [self._packet(seeds[i::k], False) for i in range(min(k, trials))]
        partials = [self._value(r) for r in self._set.map(packets)]
        counts = np.sum(partials, axis=0).astype(np.int64)
        return JoinEstimate(counts=counts, trials=trials)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def processes(self) -> list:
        """The set's worker ``Process`` objects (empty inline)."""
        return self._set.processes

    def close(self, wait: bool = True) -> None:
        """Close an owned set (:meth:`WorkerSet.close`).  Idempotent."""
        if self._owned:
            self._set.close(wait)

    def terminate(self) -> None:
        """Stop an owned set's workers at once (abandons in-flight chunks)."""
        self.close(wait=False)

    def __enter__(self) -> "TrialPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close(wait=exc_info[0] is None)


def run_trials(
    algorithm: MISAlgorithm,
    graph: StaticGraph,
    trials: int,
    seed: SeedLike = None,
    n_jobs: int = 1,
) -> JoinEstimate:
    """Run *trials* independent executions and tally per-node joins.

    This is the cold path: each call builds its own :class:`TrialPool`
    and tears it down.  Long-lived callers should hold an Estimator
    (:mod:`repro.service`) or a :class:`TrialPool` instead.

    To check every run's output, build the algorithm with
    ``validate=True``: it then validates its own result
    (:meth:`~repro.core.result.MISResult.validate`) on every tier and
    raises :class:`~repro.core.result.InvalidMISError`, inline or from
    a worker process alike.

    Parameters
    ----------
    n_jobs:
        Worker processes, canonical semantics (:func:`normalize_jobs`):
        ``1`` inline, ``0``/negative all cores, ``k > 1`` that many.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    jobs = normalize_jobs(n_jobs, limit=trials)
    if jobs == 1 or trials < 8:
        seeds = spawn_trial_seeds(seed, trials)
        return JoinEstimate(
            counts=chunk_counts(algorithm, graph, seeds), trials=trials
        )
    with TrialPool(algorithm, graph, workers=jobs) as pool:
        return pool.run(trials, seed=seed)


def estimate_join_probabilities(
    algorithm: MISAlgorithm,
    graph: StaticGraph,
    trials: int,
    seed: SeedLike = None,
    n_jobs: int = 1,
) -> np.ndarray:
    """Convenience: per-node join-probability estimates as an array."""
    return run_trials(
        algorithm, graph, trials, seed=seed, n_jobs=n_jobs
    ).probabilities
