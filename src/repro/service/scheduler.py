"""Batched request scheduler: one round loop for every request.

:meth:`BatchScheduler.submit` compiles each request into a plan on its
:class:`Ticket` — graph hash, algorithm key, seed root, an optional
:class:`~repro.service.precision.StoppingRule` and a trial target — and
one daemon dispatcher thread runs every ticket through the same loop:
:meth:`~BatchScheduler._dispatch_round` submits one round of trial
*chunks* to the ticket's :class:`~repro.analysis.montecarlo.TrialPool`,
:meth:`~BatchScheduler._on_chunk` merges each chunk's counts as it
lands, and when the round's last chunk lands the ticket either re-enters
the dispatcher queue for another round or
:meth:`~BatchScheduler._settle` completes it.

* A **fixed-budget** (v1 ``trials``) request has no stopping rule, so
  its one round is its whole budget.
* A **precision-targeted** (v2) request runs rounds until its stopping
  rule fires on prior + accumulated counts, or its hard trial cap is
  spent.  The first round is one scheduling quantum; later rounds are
  sized by the trials the normal approximation predicts are still
  needed.  Rounds re-enter the queue rather than blocking it, so
  sequential stopping never stalls concurrent traffic.

Concurrent requests share work two ways:

* **coalescing** — a fixed-budget request identical to one in flight
  (same graph, algorithm, seed, trials and mode; seeded or seedless)
  subscribes to that ticket's completion instead of re-running
  anything, so N overlapping identical requests cost one request's
  trials.  Only seeded results enter the result cache.
* **evidence reuse** — every settled ticket deposits its new counts into
  the cache's evidence plane, and precision requests seed their
  confidence interval from that pooled prior, so warm precision traffic
  typically executes few or zero new trials.

Chunk seeds derive from the request seed alone: an exact-mode
fixed-budget chunk takes the next per-trial children of the seed, so its
counts equal :func:`~repro.analysis.montecarlo.run_trials`; every other
chunk takes the seed's next child.

One :class:`~repro.analysis.montecarlo.WorkerSet` per scheduler runs
the chunks of every pair; a ticket opens a pool for its pair on it at
its first dispatch and closes it when it leaves the live set.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict, deque

import numpy as np

from ..analysis.fairness import JoinEstimate, z_for_confidence
from ..analysis.montecarlo import TrialPool, WorkerSet, normalize_jobs
from ..core.registry import make
from ..core.result import MISAlgorithm
from ..fast.batched import vector_runner_for
from ..graphs.graph import StaticGraph
from ..obs.logging import get_logger
from ..obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    use_registry,
)
from ..obs.remote import RemoteTelemetry
from ..obs.spans import bind_trace, current_span_id, current_trace_id, new_trace_id, span
from ..runtime.metrics import RequestRecord, ServiceCounters
from ..runtime.rng import as_seed_sequence
from .cache import ResultCache
from .journal import ConvergenceTrace, RequestJournal, TraceFrame
from .precision import StoppingRule
from .requests import EstimateRequest, EstimateResult

__all__ = ["BatchScheduler", "EstimateTimeout", "EstimateCancelled", "Ticket"]


class EstimateTimeout(TimeoutError):
    """Waiting on a request exceeded the caller's deadline (it may still
    complete; poll again or cancel)."""


class EstimateCancelled(RuntimeError):
    """The request was cancelled before completion (shutdown or caller)."""


class Ticket:
    """One submitted request and its plan, from submission to completion."""

    def __init__(
        self,
        request: EstimateRequest,
        graph: StaticGraph,
        graph_hash: str,
        algorithm: MISAlgorithm,
        mode: str,
        key: tuple | None,
        stopping: StoppingRule | None = None,
        prior: JoinEstimate | None = None,
    ) -> None:
        self.request = request
        self.graph = graph
        self.graph_hash = graph_hash
        self.algorithm = algorithm
        self.mode = mode
        # Coalescing key of a fixed budget (None for precision targets).
        self.key = key
        # Trace continuation: tickets join the submitting context's trace
        # (e.g. the Estimator.submit span) or start a fresh one, so every
        # scheduler/pool/chunk event for this request shares one trace_id.
        self.trace_id = current_trace_id() or new_trace_id()
        self.parent_span_id = current_span_id()
        # The plan: the stopping rule (None for a fixed budget), the cached
        # prior seeding the CI, and the target = fixed budget (v1) or hard
        # cap minus prior (v2, prior trials already count toward the cap).
        self.stopping = stopping
        self.prior = prior
        prior_trials = prior.trials if prior is not None else 0
        if stopping is None:
            assert request.trials is not None
            self.target = request.trials
        else:
            self.target = max(0, stopping.max_trials - prior_trials)
        self.seed_root = as_seed_sequence(request.seed)
        self.rounds = 0
        self.inflight_chunks = 0
        self.round_chunks = 0
        self.round_start_trials = 0
        self.frames: list[TraceFrame] = []
        self.stopped_early = False
        self.achieved: dict[str, float] | None = None
        self.counts = np.zeros(graph.n, dtype=np.int64)
        self.trials_done = 0
        self.coalesced = False
        self.subscribers: list[Ticket] = []
        self.pool: TrialPool | None = None  # open while live
        self.submitted_at = time.perf_counter()
        self._event = threading.Event()
        self._result: EstimateResult | None = None
        self._error: BaseException | None = None

    @property
    def prior_trials(self) -> int:
        return self.prior.trials if self.prior is not None else 0

    def combined(self) -> tuple[np.ndarray, int]:
        """Prior + accumulated counts — the evidence the rule sees."""
        if self.prior is None:
            return self.counts, self.trials_done
        return (
            self.prior.counts + self.counts,
            self.prior.trials + self.trials_done,
        )

    # ---- caller-facing ------------------------------------------------ #
    def done(self) -> bool:
        """True once a result or error is available."""
        return self._event.is_set()

    def cancel(self) -> None:
        """Fail this request with :class:`EstimateCancelled` now; its
        chunks stop once no coalesced request still waits on them."""
        self._fail(EstimateCancelled("request cancelled"))

    def result(self, timeout: float | None = None) -> EstimateResult:
        """Block until complete; raise :class:`EstimateTimeout` on expiry."""
        if not self._event.wait(timeout):
            raise EstimateTimeout(
                f"request {self.request.id or self.request.algorithm!r} "
                f"not complete within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def poll(self) -> EstimateResult | None:
        """The result if complete, else ``None`` (errors re-raise)."""
        if not self._event.is_set():
            return None
        return self.result(timeout=0)

    # ---- scheduler-facing --------------------------------------------- #
    @property
    def dead(self) -> bool:
        """True once neither this request nor a coalesced one waits."""
        return self.done() and all(sub.done() for sub in self.subscribers)

    def _complete(self, result: EstimateResult) -> None:
        if not self.done():
            self._result = result
            self._event.set()

    def _fail(self, error: BaseException) -> None:
        if not self.done():
            self._error = error
            self._event.set()


class BatchScheduler:
    """Owns the dispatcher thread, the worker set, cache, and records.

    Most callers should use :class:`repro.service.Estimator`, which wraps
    this with a friendlier construction/submission surface.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | None = None,
        counters: ServiceCounters | None = None,
        chunk_trials: int = 64,
        max_records: int = 1024,
        context: str | None = None,
        registry: MetricsRegistry | None = None,
        journal: RequestJournal | None = None,
    ) -> None:
        if chunk_trials <= 0:
            raise ValueError("chunk_trials must be positive")
        self.workers = normalize_jobs(workers)
        self.counters = (
            counters
            if counters is not None
            else (
                cache.counters
                if cache is not None
                else ServiceCounters(registry=registry)
            )
        )
        self.registry = (
            registry if registry is not None else self.counters.registry
        )
        self.cache = (
            cache
            if cache is not None
            else ResultCache(counters=self.counters, registry=self.registry)
        )
        self._log = get_logger("repro.service.scheduler")
        self._h_latency = self.registry.histogram(
            "service_request_latency_seconds",
            "Submit-to-completion latency of estimation requests",
            buckets=LATENCY_BUCKETS,
            labelnames=("algorithm",),
        )
        self._h_chunk = self.registry.histogram(
            "service_trials_per_chunk",
            "Trials executed per scheduled chunk",
            buckets=COUNT_BUCKETS,
        )
        self._h_queue = self.registry.histogram(
            "service_queue_depth",
            "Dispatcher queue depth sampled at each submission",
            buckets=COUNT_BUCKETS,
        )
        self._g_queue = self.registry.gauge(
            "service_queue_depth_current", "Current dispatcher queue depth"
        )
        self._c_fallback = self.registry.counter(
            "service_vectorized_fallback_total",
            "Auto-mode requests that fell back to exact per-trial chunks "
            "because the algorithm has no vectorized runner",
            labelnames=("algorithm",),
        )
        self._h_realized = self.registry.histogram(
            "service_realized_trials",
            "New trials executed per completed request (0 = served "
            "entirely from cache or pooled evidence)",
            buckets=COUNT_BUCKETS,
            labelnames=("algorithm",),
        )
        self._c_early = self.registry.counter(
            "service_precision_early_stops_total",
            "Precision requests whose stopping rule fired before the "
            "hard trial cap",
            labelnames=("algorithm",),
        )
        self._c_capped = self.registry.counter(
            "service_precision_capped_total",
            "Precision requests that exhausted their hard trial cap "
            "before the requested CI closed",
            labelnames=("algorithm",),
        )
        self.chunk_trials = chunk_trials
        self.records: deque[RequestRecord] = deque(maxlen=max_records)
        # Decision-audit plane: every primary request's convergence trace
        # lands here (bounded ring) for `repro explain` / EstimateResult.
        self.journal = journal if journal is not None else RequestJournal()
        # Cross-process plane: every pool this scheduler opens ships
        # trace context with its chunks and pipes worker metric deltas +
        # span records back through this merge point (repro.obs.remote).
        self.telemetry = RemoteTelemetry(self.registry)
        self._lock = threading.RLock()
        self._queue: queue.Queue[Ticket | None] = queue.Queue()
        # Coalescing targets by key, and every ticket still executing.
        self._inflight: dict[tuple, Ticket] = {}
        self._live: set[Ticket] = set()
        self._graph_memo: OrderedDict[str, StaticGraph] = OrderedDict()
        self._sem = threading.BoundedSemaphore(self.workers * 2)
        self._closed = False
        self._hard_stop = False
        # Forked before the dispatcher thread runs: a worker forked while
        # another thread holds a lock (an import lock, say) deadlocks.
        self._workers = WorkerSet(self.workers, context)
        self._thread = threading.Thread(
            target=self._loop, name="repro-service-scheduler", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(self, request: EstimateRequest) -> Ticket:
        """Compile *request* into a ticket and queue it; returns at once.

        Cache hits, and precision requests whose pooled evidence already
        meets the target, complete before this returns.  A fixed budget
        identical to one in flight subscribes to it instead of running.
        """
        if self._closed:
            raise RuntimeError("scheduler is shut down")
        self.counters.increment("requests")
        graph = self._resolve_graph(request)
        algorithm = make(request.algorithm, **dict(request.params))
        mode = self._resolve_mode(request.mode, algorithm)
        graph_hash = graph.content_hash()
        algorithm_key = request.algorithm_key()
        precision = request.resolved_precision()
        if precision is None:
            # The exact-plane cache key (see cache_key); seed None for
            # seedless requests, which coalesce but are never cached.
            key = (graph_hash, algorithm_key, request.seed, request.trials, mode)
            ticket = Ticket(request, graph, graph_hash, algorithm, mode, key)
        else:
            self.counters.increment("precision_requests")
            ticket = Ticket(
                request, graph, graph_hash, algorithm, mode, key=None,
                stopping=precision.rule(),
                prior=self.cache.evidence(graph_hash, algorithm_key),
            )
        depth = self._queue.qsize()
        self._h_queue.observe(depth)
        self._g_queue.set(depth)
        self._log.info(
            "request_submitted",
            trace_id=ticket.trace_id,
            request_id=request.id,
            algorithm=request.algorithm,
            trials=request.trials,
            mode=mode,
            seeded=request.seed is not None,
            precision=precision.to_json() if precision is not None else None,
            prior_trials=ticket.prior_trials,
            queue_depth=depth,
        )
        if precision is None and request.seed is not None:
            est = self.cache.get(ticket.key)
            if est is not None:
                self._finish(ticket, est, cached=True)
                return ticket
        elif ticket.prior is not None and self._check(ticket):
            self._finish(ticket, ticket.prior, cached=True)
            return ticket
        with self._lock:
            primary = self._inflight.get(ticket.key)
            if primary is not None and not primary.dead:
                ticket.coalesced = True
                primary.subscribers.append(ticket)
                self.counters.increment("coalesced_requests")
                self._log.info(
                    "request_coalesced",
                    trace_id=ticket.trace_id,
                    primary_trace_id=primary.trace_id,
                    request_id=request.id,
                )
                return ticket
            if ticket.key is not None:
                self._inflight[ticket.key] = ticket
            self._live.add(ticket)
        self._queue.put(ticket)
        return ticket

    # ------------------------------------------------------------------ #
    # resolution helpers
    # ------------------------------------------------------------------ #
    def _resolve_graph(self, request: EstimateRequest) -> StaticGraph:
        if request.graph is not None:
            return request.graph
        spec = request.graph_spec
        assert spec is not None
        with self._lock:
            memo = self._graph_memo.get(spec)
            if memo is not None:
                self._graph_memo.move_to_end(spec)
                return memo
        graph = request.resolve_graph()
        with self._lock:
            self._graph_memo[spec] = graph
            while len(self._graph_memo) > 8:
                self._graph_memo.popitem(last=False)
        return graph

    def _resolve_mode(self, mode: str, algorithm: MISAlgorithm) -> str:
        runner = vector_runner_for(algorithm)
        if mode == "auto":
            if runner is not None:
                return "vectorized"
            # The fallback is a silent throughput cliff (per-trial python
            # loop instead of the batched kernel) — make it observable.
            self._c_fallback.labels(algorithm=algorithm.name).inc()
            self._log.warning(
                "vectorized_fallback",
                algorithm=algorithm.name,
                reason="no vectorized runner registered",
            )
            return "exact"
        if mode == "vectorized" and runner is None:
            raise ValueError(
                f"algorithm {algorithm.name!r} has no vectorized runner; "
                "use mode='exact' or 'auto'"
            )
        return mode

    # ------------------------------------------------------------------ #
    # dispatcher: the round loop
    # ------------------------------------------------------------------ #
    def _loop(self) -> None:
        while True:
            ticket = self._queue.get()
            self._g_queue.set(self._queue.qsize())
            if ticket is None:
                break
            try:
                self._dispatch_round(ticket)
            except Exception as exc:  # noqa: BLE001 - fail the request
                self._abort(ticket, exc)

    def _acquire_slot(self) -> bool:
        """Bounded-concurrency gate; gives up when hard-stopped."""
        while not self._sem.acquire(timeout=0.05):
            if self._hard_stop:
                return False
        if self._hard_stop:
            self._sem.release()
            return False
        return True

    def _round_budget(self, ticket: Ticket) -> int:
        """Trials to execute in the ticket's next round.

        A fixed budget runs whatever remains of it.  A precision
        request's first round is one scheduling quantum (enough chunks
        to keep every worker busy); later rounds jump to the trial count
        the normal approximation predicts the bottleneck node still
        needs, so a cold request typically converges in two or three
        rounds instead of dozens of tiny ones.  Always clamped to the
        remaining cap budget.
        """
        remaining = ticket.target - ticket.trials_done
        if ticket.stopping is None:
            return remaining
        base = self.chunk_trials * max(1, self.workers)
        counts, trials = ticket.combined()
        budget = base
        if trials > 0 and ticket.stopping.node_ci is not None:
            est = JoinEstimate(counts=counts.copy(), trials=trials)
            hw = est.halfwidths(ticket.stopping.z)
            p = est.probabilities[int(np.argmax(hw))]
            z, ci = ticket.stopping.z, ticket.stopping.node_ci
            needed = z * z * max(p * (1.0 - p), 1e-4) / (ci * ci) - trials
            budget = max(base, int(needed * 1.05))
        return max(0, min(remaining, budget))

    def _dispatch_round(self, ticket: Ticket) -> None:
        """Submit the next round of chunks for *ticket*."""
        if self._drop_if_dead(ticket):
            return
        # Re-enter the request's trace on the dispatcher thread and bind
        # the service registry so pool/engine observations land here.
        with bind_trace(ticket.trace_id, ticket.parent_span_id), use_registry(
            self.registry
        ), span(
            "scheduler.dispatch",
            algorithm=ticket.request.algorithm,
            round=ticket.rounds + 1,
            mode=ticket.mode,
        ):
            budget = self._round_budget(ticket)
            if budget <= 0:
                self._settle(ticket)
                return
            with self._lock:
                if ticket.pool is None:
                    ticket.pool = TrialPool(
                        ticket.algorithm,
                        ticket.graph,
                        workers=self._workers,
                        telemetry=self.telemetry,
                    )
                pool = ticket.pool
            vectorized = ticket.mode == "vectorized"
            # Exact fixed budgets partition run_trials' per-trial seeds.
            per_trial = not vectorized and ticket.stopping is None
            size = self.chunk_trials
            sizes = [min(size, budget - i) for i in range(0, budget, size)]
            with self._lock:
                ticket.rounds += 1
                ticket.inflight_chunks = len(sizes)
                ticket.round_chunks = len(sizes)
                ticket.round_start_trials = ticket.trials_done
            for i, n_trials in enumerate(sizes):
                if ticket.dead or not self._acquire_slot():
                    # The chunks never sent land as empty, so the round
                    # still ends — and is dropped there.
                    self._land(ticket, len(sizes) - i)
                    return
                if per_trial:
                    payload = ticket.seed_root.spawn(n_trials)
                else:
                    child = ticket.seed_root.spawn(1)[0]
                    payload = (
                        (child, n_trials) if vectorized else child.spawn(n_trials)
                    )
                pool.submit_chunk(
                    payload,
                    vectorized,
                    callback=lambda counts, t=ticket, n=n_trials: (
                        self._on_chunk(t, n, counts)
                    ),
                    error_callback=lambda exc, t=ticket: (
                        self._on_chunk_error(t, exc)
                    ),
                )

    def _on_chunk(
        self, ticket: Ticket, n_trials: int, counts: np.ndarray
    ) -> None:
        self._release_slot()
        self.counters.increment("chunks_executed")
        self.counters.increment("trials_executed", n_trials)
        self._h_chunk.observe(n_trials)
        self._log.debug(
            "chunk_completed",
            trace_id=ticket.trace_id,
            trials=n_trials,
            algorithm=ticket.request.algorithm,
        )
        with self._lock:
            ticket.counts += counts
            ticket.trials_done += n_trials
        self._land(ticket)

    def _land(self, ticket: Ticket, chunks: int = 1) -> None:
        """Count *chunks* of the current round as landed; the last one
        ends the round with another round or the ticket's settlement."""
        with self._lock:
            ticket.inflight_chunks -= chunks
            if ticket.inflight_chunks > 0:
                return
        if self._drop_if_dead(ticket):
            return
        if ticket.stopping is not None and not self._check(ticket):
            self._queue.put(ticket)
        else:
            self._settle(ticket)

    def _on_chunk_error(self, ticket: Ticket, exc: BaseException) -> None:
        self._release_slot()
        self._abort(ticket, exc)

    def _release_slot(self) -> None:
        try:
            self._sem.release()
        except ValueError:  # pragma: no cover - defensive
            pass

    # ---- stopping rule and convergence trace -------------------------- #
    def _check(self, ticket: Ticket) -> bool:
        """Evaluate the stopping rule on prior + new counts and append a
        convergence frame; on a stop, record its outcome and return True."""
        rule = ticket.stopping
        assert rule is not None
        counts, trials = ticket.combined()
        decision = rule.check(counts, trials)
        self._log.debug(
            "round_completed",
            trace_id=ticket.trace_id,
            round=ticket.rounds,
            trials=trials,
            node_halfwidth=round(decision.node_halfwidth, 6),
            satisfied=decision.satisfied,
        )
        stop = decision.should_stop
        ticket.frames.append(
            TraceFrame(
                round=ticket.rounds,
                chunks=ticket.round_chunks,
                new_trials=ticket.trials_done - ticket.round_start_trials,
                total_new_trials=ticket.trials_done,
                prior_trials=ticket.prior_trials,
                trials=decision.trials,
                node_halfwidth=decision.node_halfwidth,
                node_target=rule.node_ci,
                inequality_halfwidth=decision.inequality_halfwidth,
                inequality_target=rule.inequality_ci,
                predicted_remaining=0 if stop else self._round_budget(ticket),
                satisfied=decision.satisfied,
                capped=decision.capped,
                wall_s=time.perf_counter() - ticket.submitted_at,
            )
        )
        if stop:
            ticket.stopped_early = decision.satisfied
            ticket.achieved = decision.achieved()
            if decision.satisfied:
                self.counters.increment("early_stops")
                self._c_early.labels(algorithm=ticket.request.algorithm).inc()
            else:
                self._c_capped.labels(algorithm=ticket.request.algorithm).inc()
        return stop

    def _build_trace(
        self, ticket: Ticket, estimate: JoinEstimate, cached: bool
    ) -> ConvergenceTrace:
        """The request's decision audit (see :mod:`repro.service.journal`).

        Precision tickets carry the frames accumulated between rounds;
        fixed-budget (and exact-cache-hit) requests get a single
        synthetic frame so the achieved half-widths are still auditable,
        with stop reason ``fixed-budget``.
        """
        if ticket.stopping is not None:
            precision = ticket.request.resolved_precision()
            return ConvergenceTrace(
                request_id=ticket.request.id,
                algorithm=ticket.request.algorithm,
                graph_hash=ticket.graph_hash,
                mode=ticket.mode,
                stop_reason="satisfied" if ticket.stopped_early else "capped",
                prior_trials=ticket.prior_trials,
                new_trials=ticket.trials_done,
                cached=cached,
                precision=precision.to_json() if precision is not None else None,
                frames=tuple(ticket.frames),
            )
        z = z_for_confidence(0.95)
        frame = TraceFrame(
            round=ticket.rounds,
            chunks=ticket.round_chunks,
            new_trials=ticket.trials_done,
            total_new_trials=ticket.trials_done,
            prior_trials=0,
            trials=estimate.trials,
            node_halfwidth=estimate.max_halfwidth(z),
            node_target=None,
            inequality_halfwidth=None,
            inequality_target=None,
            predicted_remaining=0,
            satisfied=False,
            capped=False,
            wall_s=time.perf_counter() - ticket.submitted_at,
        )
        return ConvergenceTrace(
            request_id=ticket.request.id,
            algorithm=ticket.request.algorithm,
            graph_hash=ticket.graph_hash,
            mode=ticket.mode,
            stop_reason="fixed-budget",
            prior_trials=0,
            new_trials=frame.new_trials,
            cached=cached,
            precision=None,
            frames=(frame,),
        )

    # ------------------------------------------------------------------ #
    # completion / records
    # ------------------------------------------------------------------ #
    def _settle(self, ticket: Ticket) -> None:
        """Finish an executed ticket: deposit its new trials as evidence,
        cache a seeded fixed budget, and complete it and its subscribers."""
        seed = ticket.request.seed
        counts, trials = ticket.combined()
        est = JoinEstimate(counts=counts.copy(), trials=trials)
        if seed is not None and ticket.stopping is None:
            self.cache.put(ticket.key, est)
        if ticket.trials_done > 0:
            # Seeded runs carry a dedup tag, so an identical re-run (after
            # an eviction) cannot deposit the same samples twice.
            tag = None
            if seed is not None and ticket.stopping is None:
                tag = ticket.key
            elif seed is not None:
                tag = ("precision", seed, ticket.mode, ticket.trials_done)
            self.cache.add_evidence(
                ticket.graph_hash,
                ticket.request.algorithm_key(),
                JoinEstimate(counts=ticket.counts, trials=ticket.trials_done),
                tag=tag,
            )
        self._retire(ticket)
        self._finish(ticket, est, cached=False)

    def _finish(
        self, ticket: Ticket, estimate: JoinEstimate, cached: bool
    ) -> None:
        """Deliver *estimate* to the ticket and every coalesced subscriber
        still waiting; the ticket's own trace goes to the journal."""
        trace = self._build_trace(ticket, estimate, cached)
        self.journal.record(trace)
        with self._lock:
            subscribers = list(ticket.subscribers)
        for target in (ticket, *subscribers):
            if target.done():
                continue
            primary = target is ticket
            latency = time.perf_counter() - target.submitted_at
            trials_run = ticket.trials_done if primary and not cached else 0
            algorithm = target.request.algorithm
            self._h_latency.labels(algorithm=algorithm).observe(latency)
            if primary:
                self._h_realized.labels(algorithm=algorithm).observe(trials_run)
            self._log.info(
                "request_completed",
                trace_id=target.trace_id,
                request_id=target.request.id,
                algorithm=algorithm,
                cached=cached,
                coalesced=target.coalesced,
                trials_run=trials_run,
                realized_trials=estimate.trials,
                stopped_early=ticket.stopped_early,
                latency_s=round(latency, 6),
            )
            result = EstimateResult(
                request=target.request,
                estimate=estimate,
                graph_hash=target.graph_hash,
                mode=target.mode,
                cached=cached,
                coalesced=target.coalesced,
                trials_run=trials_run,
                latency_s=latency,
                stopped_early=ticket.stopped_early,
                prior_trials=ticket.prior_trials,
                precision_achieved=ticket.achieved,
                convergence=trace if primary else None,
            )
            self._record(target, result)
            target._complete(result)

    def _record(self, ticket: Ticket, result: EstimateResult) -> None:
        self.records.append(
            RequestRecord(
                request_id=ticket.request.id or "",
                algorithm=ticket.request.algorithm,
                graph_hash=ticket.graph_hash,
                trials=(
                    ticket.request.trials
                    if ticket.request.trials is not None
                    else ticket.target
                ),
                trials_run=result.trials_run,
                mode=result.mode,
                cached=result.cached,
                coalesced=result.coalesced,
                latency_s=result.latency_s,
                realized_trials=result.realized_trials,
                stopped_early=result.stopped_early,
            )
        )

    def _drop_if_dead(self, ticket: Ticket) -> bool:
        """Abort *ticket* if nobody waits on it or the scheduler is
        hard-stopped.  Holding the lock keeps a new identical request
        from subscribing in between."""
        with self._lock:
            if not (ticket.dead or self._hard_stop):
                return False
            self._abort(ticket, EstimateCancelled("request cancelled"))
        return True

    def _retire(self, ticket: Ticket) -> bool:
        """Take *ticket* out of the live set and close its pool, which
        releases its hold on the graph; True if it was live."""
        with self._lock:
            if self._inflight.get(ticket.key) is ticket:
                del self._inflight[ticket.key]
            live = ticket in self._live
            self._live.discard(ticket)
            if ticket.pool is not None:
                ticket.pool.close()
                ticket.pool = None
        return live

    def _abort(self, ticket: Ticket, exc: BaseException) -> None:
        """Fail *ticket* and its subscribers with *exc* (once)."""
        with self._lock:
            live = self._retire(ticket)
            subscribers = list(ticket.subscribers)
        if live:
            self._log.error(
                "request_failed",
                trace_id=ticket.trace_id,
                request_id=ticket.request.id,
                algorithm=ticket.request.algorithm,
                error=f"{type(exc).__name__}: {exc}",
            )
        for target in (ticket, *subscribers):
            target._fail(exc)

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    def worker_processes(self) -> list:
        """The worker ``Process`` objects of the scheduler's set.

        Empty when the set runs inline (workers == 1).  Diagnostics and
        the shutdown tests use this to assert no process outlives
        :meth:`shutdown`.
        """
        return self._workers.processes

    def _abort_live(self) -> None:
        with self._lock:
            live = list(self._live)
        for ticket in live:
            self._abort(ticket, EstimateCancelled("service shut down"))

    def shutdown(self, wait: bool = True, timeout: float | None = None) -> None:
        """Stop the scheduler and its worker set.

        With ``wait=True`` (graceful) every live request finishes first;
        with ``wait=False`` the workers are terminated and every live
        request — and every request coalesced onto one — fails with
        :class:`EstimateCancelled` at once, as does any request still
        live once the workers are gone (a drain past *timeout*).
        Idempotent.
        """
        if self._closed and not self._thread.is_alive():
            return
        self._closed = True
        self._log.info("scheduler_shutdown", graceful=wait)
        if wait:
            # Precision tickets requeue themselves between rounds, so the
            # dispatcher must keep draining until every live ticket
            # settles; only then may the stop sentinel go in.
            deadline = (
                time.monotonic() + timeout if timeout is not None else None
            )
            while self._live and self._thread.is_alive():
                if deadline is not None and time.monotonic() >= deadline:
                    break
                time.sleep(0.005)
        else:
            self._hard_stop = True
            # No chunk may attach a graph the aborts below release.
            self._workers.close(wait=False)
            self._abort_live()
        self._queue.put(None)
        self._thread.join(timeout)
        self._workers.close(wait=wait)
        self._abort_live()
