"""Decision audit for the statistical layer: convergence traces.

The systems telemetry (spans, metrics) explains *where time went*; this
module explains *why the estimator stopped*.  Every precision-targeted
request is dispatched in rounds, and between rounds the scheduler
evaluates its :class:`~repro.service.precision.StoppingRule` — the
sequence of those evaluations is exactly the Wilson half-width
trajectory that produced the final ``stopped_early`` /
``precision_achieved`` verdict.  A :class:`ConvergenceTrace` records
that trajectory (one :class:`TraceFrame` per round, plus a frame for a
prior-only decision); each result carries its own trace, and
``repro explain`` renders the ones written to a result file.

Fixed-budget (v1) requests get a degenerate single-frame trace with
stop reason ``fixed-budget`` — there was no decision to audit, but the
achieved half-widths are still worth seeing.

Recording is O(rounds) per request (a handful of small frozen records),
never per-trial, so the traces live comfortably inside the ≤5%
observability-overhead budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

__all__ = ["TraceFrame", "ConvergenceTrace", "STOP_REASONS"]

#: The three ways a request's trial budget can end.
STOP_REASONS: tuple[str, ...] = ("satisfied", "capped", "fixed-budget")


@dataclass(frozen=True)
class TraceFrame:
    """One between-rounds stopping-rule evaluation.

    ``round`` 0 is the prior-only check made at submission (no chunks
    dispatched); rounds 1.. are executed trial rounds.  ``trials`` is
    the combined evidence the rule saw (prior + fresh);
    ``predicted_remaining`` is the scheduler's normal-approximation
    estimate of the trials still needed (0 once the decision stops).
    """

    round: int
    chunks: int
    new_trials: int
    total_new_trials: int
    prior_trials: int
    trials: int
    node_halfwidth: float
    node_target: float | None
    inequality_halfwidth: float | None
    inequality_target: float | None
    predicted_remaining: int
    satisfied: bool
    capped: bool
    wall_s: float

    @property
    def outcome(self) -> str:
        """``satisfied`` / ``capped`` / ``continue`` for this round."""
        if self.satisfied:
            return "satisfied"
        if self.capped:
            return "capped"
        return "continue"

    def to_json(self) -> dict[str, Any]:
        return {
            "round": self.round,
            "chunks": self.chunks,
            "new_trials": self.new_trials,
            "total_new_trials": self.total_new_trials,
            "prior_trials": self.prior_trials,
            "trials": self.trials,
            "node_halfwidth": self.node_halfwidth,
            "node_target": self.node_target,
            "inequality_halfwidth": self.inequality_halfwidth,
            "inequality_target": self.inequality_target,
            "predicted_remaining": self.predicted_remaining,
            "outcome": self.outcome,
            "wall_s": self.wall_s,
        }

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "TraceFrame":
        outcome = str(obj.get("outcome", "continue"))
        return cls(
            round=int(obj["round"]),
            chunks=int(obj.get("chunks", 0)),
            new_trials=int(obj.get("new_trials", 0)),
            total_new_trials=int(obj.get("total_new_trials", 0)),
            prior_trials=int(obj.get("prior_trials", 0)),
            trials=int(obj["trials"]),
            node_halfwidth=float(obj["node_halfwidth"]),
            node_target=(
                None
                if obj.get("node_target") is None
                else float(obj["node_target"])
            ),
            inequality_halfwidth=(
                None
                if obj.get("inequality_halfwidth") is None
                else float(obj["inequality_halfwidth"])
            ),
            inequality_target=(
                None
                if obj.get("inequality_target") is None
                else float(obj["inequality_target"])
            ),
            predicted_remaining=int(obj.get("predicted_remaining", 0)),
            satisfied=outcome == "satisfied",
            capped=outcome == "capped",
            wall_s=float(obj.get("wall_s", 0.0)),
        )


@dataclass(frozen=True)
class ConvergenceTrace:
    """The full decision audit of one serviced request.

    ``stop_reason`` is ``satisfied`` (the CI closed before the cap),
    ``capped`` (the hard trial cap ended the request first), or
    ``fixed-budget`` (a v1 request — the budget *was* the decision).
    ``prior_trials`` / ``new_trials`` are the provenance split: how much
    of the final evidence came from the cache's pooled evidence plane
    versus trials executed for this request.
    """

    request_id: str | None
    algorithm: str
    graph_hash: str
    mode: str
    stop_reason: str
    prior_trials: int
    new_trials: int
    cached: bool
    precision: Mapping[str, Any] | None
    frames: tuple[TraceFrame, ...]

    def __post_init__(self) -> None:
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(
                f"stop_reason must be one of {STOP_REASONS}, "
                f"got {self.stop_reason!r}"
            )

    @property
    def rounds(self) -> int:
        """Executed trial rounds (frame 0 is the prior-only check)."""
        return sum(1 for f in self.frames if f.round > 0)

    @property
    def stopped_early(self) -> bool:
        return self.stop_reason == "satisfied"

    def node_halfwidths(self) -> list[float]:
        """The per-round node half-width trajectory (sparkline input)."""
        return [f.node_halfwidth for f in self.frames]

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.request_id,
            "algorithm": self.algorithm,
            "graph_hash": self.graph_hash,
            "mode": self.mode,
            "stop_reason": self.stop_reason,
            "prior_trials": self.prior_trials,
            "new_trials": self.new_trials,
            "cached": self.cached,
            "precision": None if self.precision is None else dict(self.precision),
            "frames": [f.to_json() for f in self.frames],
        }

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "ConvergenceTrace":
        return cls(
            request_id=obj.get("id"),
            algorithm=str(obj.get("algorithm", "?")),
            graph_hash=str(obj.get("graph_hash", "?")),
            mode=str(obj.get("mode", "?")),
            stop_reason=str(obj.get("stop_reason", "fixed-budget")),
            prior_trials=int(obj.get("prior_trials", 0)),
            new_trials=int(obj.get("new_trials", 0)),
            cached=bool(obj.get("cached", False)),
            precision=obj.get("precision"),
            frames=tuple(
                TraceFrame.from_json(f) for f in obj.get("frames", [])
            ),
        )
