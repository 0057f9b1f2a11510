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
* :class:`WorkerSet` — worker processes started once: each chunk
  packet names its ``(algorithm, graph)``, so one set runs every pair;
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
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from ..core.result import MISAlgorithm
from ..graphs.graph import StaticGraph
from ..graphs.shm import (
    GraphShmHandle,
    ShmUnavailable,
    attach_graph,
    export_graph,
    shm_enabled,
)
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
    "WorkerSet",
    "chunk_counts",
    "vector_chunk_counts",
]

_log = get_logger("repro.pool")


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


def _work(packet: tuple) -> ChunkResult:
    """The worker entry point: one self-contained ``(algorithm, graph,
    chunk packet)``.  A :class:`GraphShmHandle` *graph* is attached
    through the per-process cache; any other is the graph itself."""
    algorithm, graph, chunk_packet = packet
    if isinstance(graph, GraphShmHandle):
        graph = attach_graph(graph)
    return _execute(algorithm, graph, chunk_packet)


def _ignore_sigint() -> None:
    """Worker initializer: a terminal Ctrl-C signals the whole process
    group, and the parent alone handles it by terminating the workers.

    SIGTERM keeps its handler: a worker killed by the default action
    can die holding the task queue's lock, and ``Pool.terminate`` then
    blocks on it.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)


class WorkerSet:
    """The processes that run chunk packets, started once.

    A set holds no algorithm and no graph, so one set serves every
    :class:`TrialPool` opened on it.  ``workers`` follows
    :func:`normalize_jobs`; with one the set starts no processes and
    packets run inline, which on few-core hosts beats oversubscribing.
    """

    def __init__(self, workers: int = 1, context: str | None = None) -> None:
        self.workers = normalize_jobs(workers)
        self._pool = None
        if self.workers > 1:
            import multiprocessing as mp
            from multiprocessing import resource_tracker

            # A worker forked before this process's resource tracker runs
            # starts its own on its first attach, and that tracker unlinks
            # the attached segments when the worker exits.
            resource_tracker.ensure_running()
            ctx = mp.get_context(resolve_start_method(context))
            self._pool = ctx.Pool(
                processes=self.workers, initializer=_ignore_sigint
            )

    def submit(
        self,
        packet: tuple,
        callback: Callable[[ChunkResult], None],
        error_callback: Callable[[BaseException], None],
    ) -> None:
        """Run one :func:`_work` *packet*; *callback* gets its result
        later on processes, and before this returns inline."""
        if self._pool is not None:
            self._pool.apply_async(
                _work, (packet,), callback=callback, error_callback=error_callback
            )
            return
        try:
            result = _work(packet)
        except Exception as exc:  # noqa: BLE001 - forwarded to owner
            error_callback(exc)
            return
        callback(result)

    def map(self, packets: list[tuple]) -> list[ChunkResult]:
        """Run *packets* through :func:`_work`; wait for every result."""
        if self._pool is not None:
            return self._pool.map(_work, packets)
        return [_work(packet) for packet in packets]

    @property
    def processes(self) -> list:
        """The worker ``Process`` objects (empty inline)."""
        if self._pool is None:
            return []
        return list(self._pool._pool)  # noqa: SLF001 - stdlib Pool internals

    def close(self, wait: bool = True) -> None:
        """Stop the processes, after their queued packets with ``wait``
        or at once without, and join them.  Idempotent."""
        if self._pool is not None:
            if wait:
                self._pool.close()
            else:
                self._pool.terminate()
            self._pool.join()


class TrialPool:
    """One ``(algorithm, graph)`` pair on a :class:`WorkerSet`.

    *workers* is a count, and the pool starts and owns a set of that
    many, or a set the pool borrows; :meth:`close` then releases only
    the graph.  On worker processes the graph travels over the zero-copy
    shm transport: it is exported once into shared memory (one export
    per graph, shared by its holders; :mod:`repro.graphs.shm`) and each
    chunk packet carries only the O(1)-size handle.  When shared memory
    is unavailable (or disabled host-wide via ``REPRO_SHM=0``) packets
    carry the pickled graph: O(n+m) bytes per chunk, against the chunk's
    Θ(trials × rounds × (n+m)) work.  A chunk's telemetry is absorbed by
    *telemetry* when one is attached, and dropped otherwise.
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
        self._shared = None
        self._shipped: StaticGraph | GraphShmHandle = graph
        self._transport = "inline"
        if self.workers > 1:
            self._transport = "pickle"
            if shm_enabled():
                try:
                    self._shared = export_graph(graph)
                except ShmUnavailable as exc:
                    _log.warning(
                        "shm_export_failed",
                        algorithm=algorithm.name,
                        graph_n=graph.n,
                        error=str(exc),
                    )
                else:
                    self._shipped = self._shared.handle
                    self._transport = "shm"
                    # Bytes each worker would have copied under the pickle
                    # transport but now maps instead.
                    get_registry().counter(
                        "shm_bytes_avoided_total",
                        "Graph bytes not re-copied per worker thanks to "
                        "the shm transport",
                    ).inc(graph.payload_nbytes * self.workers)
        _log.info(
            "pool_created",
            algorithm=algorithm.name,
            graph_n=graph.n,
            workers=self.workers,
            inline=self.workers == 1,
            transport=self._transport,
        )

    @property
    def transport(self) -> str:
        """How the graph reaches workers: ``inline``, ``pickle``, ``shm``."""
        return self._transport

    def _packet(self, chunk: Any, vectorized: bool) -> tuple:
        """The :func:`_work` packet of *chunk*: this pool's algorithm and
        graph, the ambient trace position and a fresh chunk ID."""
        if not vectorized:
            chunk = list(chunk)
        packet = (current_trace_context(), new_chunk_id(), chunk, vectorized)
        return (self.algorithm, self._shipped, packet)

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
        """Close an owned set (:meth:`WorkerSet.close`), then release the
        graph's shm export.  Idempotent."""
        if self._owned:
            self._set.close(wait)
        if self._shared is not None:
            self._shared.close()
            self._shared = None

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
