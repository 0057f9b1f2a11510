"""Execution metrics collected by the synchronous network.

The paper's complexity claims are in rounds; the model also constrains
per-message size.  The runtime therefore tracks, per round and in total:
round count, message count, and slot volume — enough to empirically verify
the ``O(log* n)`` / ``O(log n)`` / ``O(log^2 n)`` claims (experiment E11).

The estimation service keeps its totals in its
:class:`~repro.obs.metrics.MetricsRegistry` (``service_*_total``
counters, see ``docs/OBSERVABILITY.md``), not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RoundRecord", "RunMetrics"]


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """Traffic observed in one synchronous round."""

    round_index: int
    messages: int
    slots: int
    active_nodes: int


@dataclass
class RunMetrics:
    """Aggregated metrics for one complete execution."""

    rounds: int = 0
    total_messages: int = 0
    total_slots: int = 0
    max_slots_per_message: int = 0
    per_round: list[RoundRecord] = field(default_factory=list)

    def record_round(
        self, round_index: int, messages: int, slots: int, active_nodes: int
    ) -> None:
        """Append one round's traffic and update the running totals.

        ``rounds`` tracks the highest index seen (not the last recorded),
        so out-of-order recording — or a restart at round 0 — can never
        silently under-count the run.
        """
        self.rounds = max(self.rounds, round_index)
        self.total_messages += messages
        self.total_slots += slots
        self.per_round.append(
            RoundRecord(
                round_index=round_index,
                messages=messages,
                slots=slots,
                active_nodes=active_nodes,
            )
        )

    def observe_message(self, slots: int) -> None:
        """Track the largest single message seen (slot-budget audits)."""
        if slots > self.max_slots_per_message:
            self.max_slots_per_message = slots

    @property
    def mean_messages_per_round(self) -> float:
        """Average messages per round (0.0 for an empty run)."""
        if not self.per_round:
            return 0.0
        return self.total_messages / len(self.per_round)
