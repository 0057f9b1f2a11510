"""Stable public API facade for library consumers.

``repro.api`` is the compatibility surface: names exported here stay
stable, whereas internal module layout may shift between versions.
Typical use::

    from repro.api import Estimator, GraphSpec, Precision

    graph = GraphSpec.parse("tree:500:1").build()
    with Estimator(n_jobs=0) as service:
        result = service.estimate(
            graph=graph, algorithm="fair_tree_fast",
            precision=Precision(node_ci=0.02), seed=0,
        )
        print(result.estimate.inequality, result.realized_trials)

Requests come in two shapes (``docs/API.md``, "v1 and v2").  The v1
shape — ``trials=`` without ``precision=`` — is a fixed budget, the
paper's protocol: exactly that many trials, exact-mode counts
bit-identical to :func:`run_trials`, and an exact-key result cache.
The v2 shape targets a confidence interval instead: :class:`Precision`
specifies the target CI half-width (per-node join frequency and/or
inequality factor), a confidence level, and a hard trial cap; the
scheduler runs trial rounds, seeds the interval from cached evidence,
and stops as soon as the target closes.
``EstimateResult.realized_trials`` reports the total evidence behind
the returned estimate.

Groups:

* graphs — :class:`GraphSpec` parsing/building, :class:`StaticGraph`,
  content hashing for cache keys;
* estimation — the cold-path :func:`run_trials`, the canonical
  :func:`normalize_jobs` semantics, :class:`JoinEstimate`;
* service — :class:`Estimator`, the request/result dataclasses shared
  with the ``python -m repro serve``/``batch`` CLI, and the v2
  :class:`Precision`/:class:`StoppingRule` sequential-stopping contract;
* observability — structured logging (:func:`get_logger`,
  :func:`configure_logging`), request tracing (:func:`span`), the
  :class:`MetricsRegistry` behind every estimator's counters and
  histograms, and the opt-in engine :class:`PhaseProfiler`
  (:func:`use_profiler`) (see ``docs/OBSERVABILITY.md``);
* benchmarking — :func:`run_suite` and artifact comparison behind
  ``python -m repro bench``;
* registry — :func:`make`/:func:`available` algorithm construction.
"""

from __future__ import annotations

from .analysis.fairness import JoinEstimate, inequality_factor
from .bench import (
    compare_artifacts,
    load_artifact,
    make_artifact,
    run_suite,
    write_artifact,
)
from .analysis.montecarlo import (
    TrialPool,
    estimate_join_probabilities,
    normalize_jobs,
    run_trials,
)
from .core.registry import available, make
from .core.result import MISAlgorithm, MISResult
from .graphs.graph import RootedTree, StaticGraph
from .graphs.spec import GraphSpec, GraphSpecError, build_graph
from .obs import (
    MetricsRegistry,
    PhaseProfiler,
    configure_logging,
    current_profiler,
    default_registry,
    get_logger,
    span,
    use_profiler,
)
from .service import (
    PROTOCOL_VERSIONS,
    BatchScheduler,
    Estimator,
    EstimateCancelled,
    EstimateRequest,
    EstimateResult,
    EstimateTimeout,
    Precision,
    RequestHandle,
    ResultCache,
    StoppingRule,
)

__all__ = [
    # graphs
    "GraphSpec",
    "GraphSpecError",
    "build_graph",
    "StaticGraph",
    "RootedTree",
    # estimation
    "run_trials",
    "estimate_join_probabilities",
    "normalize_jobs",
    "TrialPool",
    "JoinEstimate",
    "inequality_factor",
    # service
    "Estimator",
    "RequestHandle",
    "EstimateRequest",
    "EstimateResult",
    "EstimateTimeout",
    "EstimateCancelled",
    "Precision",
    "StoppingRule",
    "PROTOCOL_VERSIONS",
    "BatchScheduler",
    "ResultCache",
    # observability
    "MetricsRegistry",
    "default_registry",
    "configure_logging",
    "get_logger",
    "span",
    "PhaseProfiler",
    "use_profiler",
    "current_profiler",
    # benchmarking
    "run_suite",
    "make_artifact",
    "write_artifact",
    "load_artifact",
    "compare_artifacts",
    # registry
    "make",
    "available",
    "MISAlgorithm",
    "MISResult",
]
