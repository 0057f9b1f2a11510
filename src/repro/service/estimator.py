"""The programmatic estimation-service handle.

:class:`Estimator` is the public face of :mod:`repro.service`: a
long-lived object owning one resident worker set, the batched
scheduler, and the result cache.  Contrast with the cold path::

    # cold: pays worker spin-up + graph export on every call
    est = run_trials(FastLuby(), graph, 2000, seed=0, n_jobs=4)

    # warm: spin-up paid once, evidence cached, requests coalesced.
    # v2 requests target a precision, not a trial count — the scheduler
    # stops as soon as the requested CI closes:
    with Estimator(n_jobs=4) as service:
        est = service.estimate(graph=graph, algorithm="luby_fast",
                               precision=Precision(node_ci=0.02),
                               seed=0).estimate

Submission is asynchronous (`submit` returns a handle with
``done``/``poll``/``result(timeout)``); :meth:`estimate` is the blocking
convenience.  ``shutdown`` (or the context manager) releases every worker
process — ``wait=True`` drains queued requests first, ``wait=False``
cancels them and terminates workers immediately.
"""

from __future__ import annotations

import os
import warnings
from collections import deque
from typing import Any, Mapping

from ..analysis.montecarlo import normalize_jobs
from ..graphs.graph import StaticGraph
from ..obs.logging import get_logger
from ..obs.metrics import MetricsRegistry, use_registry
from ..obs.spans import span
from ..runtime.metrics import RequestRecord, ServiceCounters
from .cache import ResultCache
from .journal import RequestJournal
from .precision import Precision
from .requests import EstimateRequest, EstimateResult
from .scheduler import BatchScheduler, Ticket

__all__ = ["Estimator", "RequestHandle"]


class RequestHandle:
    """Caller-side view of one submitted request (wraps a scheduler ticket)."""

    def __init__(self, ticket: Ticket) -> None:
        self._ticket = ticket

    @property
    def request(self) -> EstimateRequest:
        """The request this handle tracks."""
        return self._ticket.request

    @property
    def trace_id(self) -> str:
        """The trace this request's span tree lives under.

        Hand it to ``repro trace`` / :func:`repro.obs.export.to_chrome_trace`
        to export the connected estimator → scheduler → worker-chunk tree.
        """
        return self._ticket.trace_id

    def done(self) -> bool:
        """True once a result (or error) is available."""
        return self._ticket.done()

    def poll(self) -> EstimateResult | None:
        """The result if ready, else ``None``; request errors re-raise."""
        return self._ticket.poll()

    def result(self, timeout: float | None = None) -> EstimateResult:
        """Block for the result; :class:`~repro.service.EstimateTimeout`
        on expiry (the request keeps running — poll again or cancel)."""
        return self._ticket.result(timeout)

    def cancel(self) -> None:
        """Fail this request with
        :class:`~repro.service.EstimateCancelled` now; its trial chunks
        stop once no coalesced identical request still waits on them."""
        self._ticket.cancel()


class Estimator:
    """In-process fairness-estimation service.

    Parameters
    ----------
    n_jobs:
        Canonical semantics (see
        :func:`repro.analysis.montecarlo.normalize_jobs`): ``1`` inline,
        ``0``/negative all cores, ``k > 1`` that many workers.  Unlike the
        low-level ``run_trials`` — which does exactly what it is told —
        the service additionally right-sizes to the host when
        ``clamp_to_host`` is true (default): CPU-bound trials never go
        faster with more processes than cores, so requesting 4 jobs on a
        1-core box yields one inline worker, not 4 thrashing processes.
        The workers start once and run every pair until :meth:`shutdown`.
    cache_size:
        LRU capacity of the result cache (0 disables caching).
    chunk_trials:
        Trials per scheduling chunk — the unit of coalescing, incremental
        merging, and cancellation.
    """

    def __init__(
        self,
        n_jobs: int = 0,
        cache_size: int = 128,
        chunk_trials: int = 64,
        clamp_to_host: bool = True,
        context: str | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        workers = normalize_jobs(n_jobs)
        if clamp_to_host:
            workers = min(workers, os.cpu_count() or 1)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.counters = ServiceCounters(registry=self.registry)
        self.cache = ResultCache(
            capacity=cache_size,
            counters=self.counters,
            registry=self.registry,
        )
        self._scheduler = BatchScheduler(
            workers=workers,
            cache=self.cache,
            counters=self.counters,
            chunk_trials=chunk_trials,
            context=context,
            registry=self.registry,
            journal=RequestJournal(),
        )
        self._log = get_logger("repro.service.estimator")
        self._log.info(
            "service_started",
            workers=workers,
            cache_size=cache_size,
            chunk_trials=chunk_trials,
        )

    # ------------------------------------------------------------------ #
    # request surface
    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:
        """Effective worker count after normalization/clamping."""
        return self._scheduler.workers

    @property
    def records(self) -> deque[RequestRecord]:
        """Per-request latency/throughput records (bounded, newest last)."""
        return self._scheduler.records

    @property
    def telemetry(self):
        """The scheduler's :class:`~repro.obs.remote.RemoteTelemetry`
        merge point (worker metric deltas land here)."""
        return self._scheduler.telemetry

    @property
    def journal(self) -> RequestJournal:
        """Bounded ring of recent convergence traces (``repro explain``)."""
        return self._scheduler.journal

    def submit(
        self,
        request: EstimateRequest | None = None,
        *,
        graph: StaticGraph | None = None,
        graph_spec: str | None = None,
        algorithm: str = "fair_tree_fast",
        trials: int | None = None,
        precision: Precision | None = None,
        seed: int | None = 0,
        params: Mapping[str, Any] | None = None,
        mode: str = "auto",
        trace: bool = False,
        request_id: str | None = None,
    ) -> RequestHandle:
        """Submit a request (non-blocking); returns a :class:`RequestHandle`.

        Pass either a prebuilt :class:`EstimateRequest` or the keyword
        fields of one.  ``precision=`` is the v2 surface — the scheduler
        runs trial rounds until the target CI closes (seeding from
        cached evidence) instead of burning a fixed budget.  ``trials=``
        alone is the deprecated fixed-budget mode (a
        ``DeprecationWarning`` is raised); passed alongside
        ``precision=`` it overrides the target's hard cap.  With neither
        given, :meth:`Precision.default` applies.
        """
        if request is None:
            if trials is not None and precision is None:
                warnings.warn(
                    "fixed trial budgets (trials= without precision=) are "
                    "deprecated; pass precision=Precision(...) to target a "
                    "confidence interval, optionally keeping trials= as the "
                    "hard cap (see docs/API.md)",
                    DeprecationWarning,
                    stacklevel=2,
                )
            if trials is None and precision is None:
                precision = Precision.default()
            request = EstimateRequest(
                algorithm=algorithm,
                trials=trials,
                graph=graph,
                graph_spec=graph_spec,
                seed=seed,
                params=dict(params or {}),
                mode=mode,
                precision=precision,
                trace=trace,
                id=request_id,
            )
        with use_registry(self.registry), span(
            "estimator.submit",
            algorithm=request.algorithm,
            trials=request.trials,
        ):
            ticket = self._scheduler.submit(request)
        return RequestHandle(ticket)

    def estimate(
        self,
        request: EstimateRequest | None = None,
        *,
        timeout: float | None = None,
        **kwargs: Any,
    ) -> EstimateResult:
        """Blocking convenience: ``submit(...).result(timeout)``."""
        return self.submit(request, **kwargs).result(timeout)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self, wait: bool = True, timeout: float | None = None) -> None:
        """Stop the scheduler and terminate every worker process.

        ``wait=True`` finishes queued requests first; ``wait=False``
        cancels pending requests (their handles raise
        :class:`~repro.service.EstimateCancelled`) and kills workers.
        Afterwards no worker process of this estimator remains alive.
        """
        self._log.info("service_shutdown", graceful=wait)
        self._scheduler.shutdown(wait=wait, timeout=timeout)

    def __enter__(self) -> "Estimator":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        self.shutdown(wait=exc_type is None)
