"""In-process fairness-estimation service (resident workers + cache).

The production-facing serving layer over the Monte-Carlo engines:

* :class:`Estimator` — programmatic handle with submit/poll/await,
  timeout, and graceful-shutdown semantics;
* :class:`EstimateRequest` / :class:`EstimateResult` — the request
  surface shared by the library, the scheduler, and the
  ``python -m repro serve``/``batch`` CLI;
* :class:`Precision` / :class:`StoppingRule` — the v2 precision-targeted
  contract: requests specify a CI target and the scheduler runs trial
  rounds until it closes (sequential stopping with a hard cap);
* :class:`ResultCache` — content-addressed cache: exact-key results for
  fixed-budget requests plus an accumulating evidence store keyed by
  ``(graph hash, algorithm)`` that seeds precision requests' CIs;
* :class:`BatchScheduler` — request coalescing and chunked dispatch onto
  one resident :class:`~repro.analysis.montecarlo.WorkerSet`.

See ``docs/SERVICE.md`` for the architecture and request JSON schema,
``docs/API.md`` for the v2 request lifecycle and migration guide.
"""

from .cache import ResultCache, cache_key, evidence_key
from .estimator import Estimator, RequestHandle
from .journal import ConvergenceTrace, RequestJournal, TraceFrame
from .precision import Precision, StopDecision, StoppingRule
from .requests import MODES, PROTOCOL_VERSIONS, EstimateRequest, EstimateResult
from .scheduler import BatchScheduler, EstimateCancelled, EstimateTimeout

__all__ = [
    "Estimator",
    "RequestHandle",
    "EstimateRequest",
    "EstimateResult",
    "Precision",
    "StoppingRule",
    "StopDecision",
    "ConvergenceTrace",
    "TraceFrame",
    "RequestJournal",
    "MODES",
    "PROTOCOL_VERSIONS",
    "ResultCache",
    "cache_key",
    "evidence_key",
    "BatchScheduler",
    "EstimateTimeout",
    "EstimateCancelled",
]
