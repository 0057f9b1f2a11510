"""Request/result dataclasses shared by the CLI, service, and library.

:class:`EstimateRequest` is the one description of an estimation request
used everywhere: the ``repro.service.Estimator`` accepts it
programmatically, ``python -m repro serve``/``batch`` read it as JSON
lines, and library callers can build it directly.
:class:`EstimateResult` pairs the request with the
:class:`~repro.analysis.fairness.JoinEstimate` plus serving metadata
(cache/coalescing provenance, resolved executor mode, latency, realized
trials).

Two request generations coexist (see ``docs/API.md``, "v1 and v2"):

* **v2 (precision target)** — the request carries a
  :class:`~repro.service.precision.Precision` target and the scheduler
  runs trial rounds until the confidence interval closes (sequential
  stopping with a hard cap), seeding from cached evidence::

      {"v": 2, "id": "r1", "graph": "tree:500:1",
       "algorithm": "fair_tree_fast", "seed": 0, "mode": "auto",
       "precision": {"node_ci": 0.025, "confidence": 0.95,
                     "max_trials": 20000}}

* **v1 (fixed budget)** — a bare ``trials`` count, the paper's
  protocol::

      {"id": "r1", "graph": "tree:500:1", "algorithm": "fair_tree_fast",
       "trials": 2000, "seed": 0, "mode": "auto", "params": {}}

  Exactly that many trials run; exact-mode counts are bit-identical to
  ``run_trials`` and results are cached under their exact key.

When both ``trials`` and ``precision`` are given, ``trials`` acts as the
hard cap override.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..analysis.fairness import JoinEstimate
from ..graphs.graph import StaticGraph
from ..graphs.spec import GraphSpec
from .journal import ConvergenceTrace
from .precision import Precision

__all__ = ["EstimateRequest", "EstimateResult", "MODES", "PROTOCOL_VERSIONS"]

#: Executor modes: ``auto`` picks the vectorized kernel when the algorithm
#: has one, ``exact`` forces per-trial seed parity with ``run_trials``,
#: ``vectorized`` requires the batched kernel (error if unavailable).
MODES: tuple[str, ...] = ("auto", "exact", "vectorized")

#: JSON protocol versions understood by :meth:`EstimateRequest.from_json`.
PROTOCOL_VERSIONS: tuple[int, ...] = (1, 2)

_V1_FIELDS = {"v", "id", "graph", "algorithm", "trials", "seed", "params", "mode"}
_V2_FIELDS = _V1_FIELDS | {"precision", "trace"}


@dataclass(frozen=True)
class EstimateRequest:
    """One fairness-estimation request.

    Exactly one of ``graph`` (a built :class:`StaticGraph`) or
    ``graph_spec`` (a ``kind:arg`` string, see :mod:`repro.graphs.spec`)
    must be provided, and at least one of ``trials`` (v1 fixed budget)
    or ``precision`` (v2 target).  ``seed`` defaults to 0 so
    identical requests are deterministic and cacheable; pass
    ``seed=None`` for fresh entropy (fixed-budget seedless requests
    bypass the result cache, and an identical seedless request already
    in flight serves them instead of a second run).
    """

    algorithm: str
    trials: int | None = None
    graph: StaticGraph | None = None
    graph_spec: str | None = None
    seed: int | None = 0
    params: Mapping[str, Any] = field(default_factory=dict)
    mode: str = "auto"
    precision: Precision | None = None
    trace: bool = False
    id: str | None = None

    def __post_init__(self) -> None:
        if not self.algorithm:
            raise ValueError("algorithm name must be non-empty")
        if self.trials is None and self.precision is None:
            raise ValueError(
                "provide trials= (fixed budget) and/or "
                "precision= (v2 target)"
            )
        if self.trials is not None and self.trials <= 0:
            raise ValueError("trials must be positive")
        if (self.graph is None) == (self.graph_spec is None):
            raise ValueError("provide exactly one of graph / graph_spec")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.graph_spec is not None:
            GraphSpec.parse(self.graph_spec)  # fail fast on bad specs

    def resolve_graph(self) -> StaticGraph:
        """The request's graph, building it from the spec if needed."""
        if self.graph is not None:
            return self.graph
        assert self.graph_spec is not None
        return GraphSpec.parse(self.graph_spec).build()

    def resolved_precision(self) -> Precision | None:
        """The effective precision target, or ``None`` for fixed budgets.

        When both ``precision`` and ``trials`` are given, ``trials``
        overrides the target's hard cap.
        """
        if self.precision is None:
            return None
        if self.trials is not None:
            return self.precision.with_cap(self.trials)
        return self.precision

    def algorithm_key(self) -> str:
        """Stable identity of ``(algorithm, params)`` for cache/pool keys."""
        if not self.params:
            return self.algorithm
        inner = ",".join(f"{k}={self.params[k]!r}" for k in sorted(self.params))
        return f"{self.algorithm}({inner})"

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "EstimateRequest":
        """Build a request from a decoded JSON object.

        The ``"v"`` envelope field selects the protocol generation:
        ``2`` accepts a ``precision`` block (and makes ``trials``
        optional); absent or ``1`` is the legacy fixed-budget line where
        ``trials`` defaults to 2000 and ``precision`` is rejected.
        """
        version = int(obj.get("v", 1))
        if version not in PROTOCOL_VERSIONS:
            raise ValueError(
                f"unsupported request protocol v{version} "
                f"(supported: {PROTOCOL_VERSIONS})"
            )
        known = _V2_FIELDS if version >= 2 else _V1_FIELDS
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown request fields: {sorted(unknown)}")
        if "graph" not in obj:
            raise ValueError("request JSON requires a 'graph' spec string")
        precision: Precision | None = None
        trials: int | None = None
        trace = False
        if version >= 2:
            if obj.get("precision") is not None:
                precision = Precision.from_json(obj["precision"])
            if obj.get("trials") is not None:
                trials = int(obj["trials"])
            if precision is None and trials is None:
                precision = Precision.default()
            trace = bool(obj.get("trace", False))
        else:
            trials = int(obj.get("trials", 2000))
        return cls(
            algorithm=obj.get("algorithm", "fair_tree_fast"),
            trials=trials,
            graph_spec=str(obj["graph"]),
            seed=None if obj.get("seed", 0) is None else int(obj.get("seed", 0)),
            params=dict(obj.get("params", {})),
            mode=str(obj.get("mode", "auto")),
            precision=precision,
            trace=trace,
            id=obj.get("id"),
        )

    def to_json(self) -> dict[str, Any]:
        """JSON-serializable form (requires a spec-described graph).

        Precision-bearing requests serialize as v2 envelopes; pure
        fixed-budget requests keep the exact legacy v1 shape.
        """
        if self.graph_spec is None:
            raise ValueError(
                "requests built from an in-memory graph are not serializable; "
                "use graph_spec"
            )
        out: dict[str, Any] = {}
        if self.precision is not None or self.trace:
            out["v"] = 2
        out.update(
            graph=self.graph_spec,
            algorithm=self.algorithm,
            seed=self.seed,
            mode=self.mode,
        )
        if self.precision is not None:
            out["precision"] = self.precision.to_json()
            if self.trials is not None:
                out["trials"] = self.trials
        else:
            out["trials"] = self.trials
        if self.trace:
            out["trace"] = True
        if self.params:
            out["params"] = dict(self.params)
        if self.id is not None:
            out["id"] = self.id
        return out


@dataclass(frozen=True)
class EstimateResult:
    """Outcome of one serviced request.

    ``trials_run`` counts the *new* trials executed on behalf of this
    request: 0 for a cache/evidence hit and for a request coalesced onto
    an identical one in flight, less than the hard cap when the
    stopping rule fired early.  :attr:`realized_trials` is the total
    evidence behind the returned estimate — new trials plus any cached
    prior (``prior_trials``) the scheduler seeded the CI with.

    ``convergence`` is the request's decision audit (one frame per
    stopping-rule evaluation; see :mod:`repro.service.journal`) — always
    recorded for primary requests, but only serialized into the JSON
    envelope when the request asked for it (``"trace": true``).
    """

    request: EstimateRequest
    estimate: JoinEstimate
    graph_hash: str
    mode: str
    cached: bool
    coalesced: bool
    trials_run: int
    latency_s: float
    stopped_early: bool = False
    prior_trials: int = 0
    precision_achieved: Mapping[str, float] | None = None
    convergence: ConvergenceTrace | None = None

    @property
    def realized_trials(self) -> int:
        """Total trials backing the estimate (prior evidence + new)."""
        return self.estimate.trials

    def to_json(self, include_counts: bool = True) -> dict[str, Any]:
        """JSON-serializable summary (counts optional — they can be big)."""
        est = self.estimate
        out: dict[str, Any] = {
            "algorithm": self.request.algorithm,
            "trials": est.trials,
            "seed": self.request.seed,
            "graph_hash": self.graph_hash,
            "mode": self.mode,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "trials_run": self.trials_run,
            "latency_s": self.latency_s,
            "inequality": est.inequality,
            "min_probability": est.min_probability,
            "max_probability": est.max_probability,
        }
        if self.request.precision is not None:
            out["v"] = 2
            out["realized_trials"] = self.realized_trials
            out["prior_trials"] = self.prior_trials
            out["stopped_early"] = self.stopped_early
            if self.precision_achieved is not None:
                out["precision_achieved"] = dict(self.precision_achieved)
        if self.request.trace and self.convergence is not None:
            out["v"] = 2
            out["convergence"] = self.convergence.to_json()
        if self.request.id is not None:
            out["id"] = self.request.id
        if self.request.graph_spec is not None:
            out["graph"] = self.request.graph_spec
        if include_counts:
            out["counts"] = est.counts.tolist()
        return out
