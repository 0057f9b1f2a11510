"""Declarative SLO health rules over service stats snapshots.

The metrics registry answers "what is the value of X"; this module
answers the operator's actual question — "is the service healthy?" — by
evaluating a small set of threshold rules against one stats snapshot
(the ``{"event": "stats", ...}`` document ``repro serve/batch
--stats-every`` writes, built by
:func:`~repro.obs.dashboard.snapshot_from_registry`).  Every quantity
is read from the snapshot's ``metrics`` block, the registry's own
snapshot: the service's lifetime totals are its ``service_*_total``
counter families there, present at 0 from the service's start.

Each :class:`HealthRule` names a quantity, how to extract it from the
snapshot, and warn/crit thresholds with a direction (``above`` — big is
bad, e.g. latency; ``below`` — small is bad, e.g. hit rates).  A rule
whose quantity is absent from the snapshot (no traffic yet, counters
missing) evaluates to OK with a ``no data`` note: health gates must not
fail on silence.

:func:`evaluate_health` returns a :class:`HealthReport` whose
``exit_code`` follows the Nagios convention the CLI exposes —
``repro health`` exits 0 (ok) / 1 (warn) / 2 (crit) so CI can gate on
it directly.  ``repro top`` evaluates the same rules per frame, uses
the per-rule statuses to highlight unhealthy rows and shows the hit
rates the rules measured, and reads stats files through the same
:func:`iter_stats`.  Latency percentiles come
from :func:`~repro.obs.metrics.merged_buckets` and
:func:`~repro.obs.metrics.bucket_quantile`, the interpolation
``repro top`` uses too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .metrics import bucket_quantile, merged_buckets

__all__ = [
    "HealthRule",
    "RuleResult",
    "HealthReport",
    "STATUSES",
    "default_rules",
    "evaluate_health",
    "iter_stats",
    "load_stats_snapshot",
]

#: Severity order; index is the process exit code (Nagios convention).
STATUSES: tuple[str, ...] = ("ok", "warn", "crit")


# --------------------------------------------------------------------- #
# snapshot accessors (shape documented in docs/OBSERVABILITY.md)
# --------------------------------------------------------------------- #
def _counter_sum(snapshot: Mapping[str, Any], name: str) -> float | None:
    """Sum of a registry counter family across all label series."""
    series = snapshot.get("metrics", {}).get("counters", {}).get(name, {})
    if not series:
        return None
    return float(sum(float(v) for v in series.values()))


def _gauge(snapshot: Mapping[str, Any], name: str) -> float | None:
    series = snapshot.get("metrics", {}).get("gauges", {}).get(name, {})
    if not series:
        return None
    return float(sum(float(v) for v in series.values()))


def _ratio(
    snapshot: Mapping[str, Any], num_name: str, den_names: Sequence[str]
) -> float | None:
    """A ratio of registry counter families (None if any is absent or
    the denominator is 0)."""
    num = _counter_sum(snapshot, num_name)
    parts = [_counter_sum(snapshot, name) for name in den_names]
    if num is None or any(p is None for p in parts):
        return None
    den = sum(p for p in parts if p is not None)
    if den <= 0:
        return None
    return num / den


def _hist_quantile(
    snapshot: Mapping[str, Any], name: str, q: float, scale: float = 1.0
) -> float | None:
    """*q*-quantile of a histogram with all its label series summed."""
    series = snapshot.get("metrics", {}).get("histograms", {}).get(name, {})
    value = bucket_quantile(merged_buckets(series), q)
    return None if value is None else value * scale


def _frontend_shed_rate(snapshot: Mapping[str, Any]) -> float | None:
    """Front-end sheds over admission decisions (None without traffic)."""
    shed = _counter_sum(snapshot, "frontend_shed_total")
    admitted = _counter_sum(snapshot, "frontend_admitted_total")
    if shed is None and admitted is None:
        return None
    total = (shed or 0.0) + (admitted or 0.0)
    if total <= 0:
        return None
    return (shed or 0.0) / total


# --------------------------------------------------------------------- #
# rules and reports
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class HealthRule:
    """One threshold check over a stats snapshot.

    ``direction`` says which side of the thresholds is unhealthy:
    ``above`` (latency, queue depth, error counts) or ``below`` (hit
    and early-stop rates).  Either threshold may be ``None`` to skip
    that severity.  ``extract`` returns the quantity or ``None`` when
    the snapshot has no data for it (→ OK, noted).
    """

    name: str
    description: str
    extract: Callable[[Mapping[str, Any]], float | None]
    direction: str = "above"
    warn: float | None = None
    crit: float | None = None
    unit: str = ""

    def __post_init__(self) -> None:
        if self.direction not in ("above", "below"):
            raise ValueError(
                f"direction must be 'above' or 'below', got {self.direction!r}"
            )

    def evaluate(self, snapshot: Mapping[str, Any]) -> "RuleResult":
        value = self.extract(snapshot)
        if value is None:
            return RuleResult(rule=self, status="ok", value=None)
        status = "ok"
        if self.direction == "above":
            if self.crit is not None and value > self.crit:
                status = "crit"
            elif self.warn is not None and value > self.warn:
                status = "warn"
        else:
            if self.crit is not None and value < self.crit:
                status = "crit"
            elif self.warn is not None and value < self.warn:
                status = "warn"
        return RuleResult(rule=self, status=status, value=value)


@dataclass(frozen=True)
class RuleResult:
    """Outcome of one rule against one snapshot."""

    rule: HealthRule
    status: str
    value: float | None

    def to_json(self) -> dict[str, Any]:
        return {
            "rule": self.rule.name,
            "status": self.status,
            "value": self.value,
            "warn": self.rule.warn,
            "crit": self.rule.crit,
            "direction": self.rule.direction,
            "unit": self.rule.unit,
        }


@dataclass(frozen=True)
class HealthReport:
    """All rule results for one snapshot, plus the overall verdict."""

    results: tuple[RuleResult, ...]

    @property
    def status(self) -> str:
        """Worst individual status (``ok`` for an empty rule set)."""
        worst = 0
        for r in self.results:
            worst = max(worst, STATUSES.index(r.status))
        return STATUSES[worst]

    @property
    def exit_code(self) -> int:
        """0 ok / 1 warn / 2 crit — ``repro health``'s process exit."""
        return STATUSES.index(self.status)

    def _result(self, rule_name: str) -> RuleResult | None:
        for r in self.results:
            if r.rule.name == rule_name:
                return r
        return None

    def status_of(self, rule_name: str) -> str | None:
        """The status of one rule by name (``None`` if not evaluated)."""
        r = self._result(rule_name)
        return None if r is None else r.status

    def value_of(self, rule_name: str) -> float | None:
        """The quantity one rule measured (``None``: no data or not
        evaluated) — ``repro top`` shows its hit rates from here."""
        r = self._result(rule_name)
        return None if r is None else r.value

    def failing(self) -> list[RuleResult]:
        """Results that are warn or crit, worst first."""
        bad = [r for r in self.results if r.status != "ok"]
        return sorted(bad, key=lambda r: -STATUSES.index(r.status))

    def to_json(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "exit_code": self.exit_code,
            "rules": [r.to_json() for r in self.results],
        }

    def format(self) -> str:
        """Human-readable table, one rule per line, verdict last."""
        lines = []
        for r in self.results:
            mark = {"ok": "ok  ", "warn": "WARN", "crit": "CRIT"}[r.status]
            if r.value is None:
                shown = "-   (no data)"
            else:
                shown = f"{r.value:.4g}{r.rule.unit}"
            limits = []
            cmp = ">" if r.rule.direction == "above" else "<"
            if r.rule.warn is not None:
                limits.append(f"warn {cmp}{r.rule.warn:g}{r.rule.unit}")
            if r.rule.crit is not None:
                limits.append(f"crit {cmp}{r.rule.crit:g}{r.rule.unit}")
            lines.append(
                f"{mark}  {r.rule.name:<22} {shown:<16} "
                f"[{', '.join(limits) or 'informational'}]  "
                f"{r.rule.description}"
            )
        lines.append(f"health: {self.status}")
        return "\n".join(lines)


def default_rules(
    slo_ms: float = 250.0,
) -> tuple[HealthRule, ...]:
    """The stock rule set ``repro health`` and ``repro top`` evaluate.

    Latency thresholds derive from the SLO target (warn at the SLO,
    crit at 4×); rate thresholds are deliberately lenient — they flag
    a service that is clearly mis-deployed (precision requests never
    stopping early, evidence plane never hitting), not one that is
    merely cold.
    """
    return (
        HealthRule(
            name="latency_p99_ms",
            description="p99 request latency (all algorithms merged)",
            extract=lambda s: _hist_quantile(
                s, "service_request_latency_seconds", 0.99, scale=1e3
            ),
            direction="above",
            warn=slo_ms,
            crit=slo_ms * 4,
            unit="ms",
        ),
        HealthRule(
            name="queue_depth",
            description="current dispatcher queue depth",
            extract=lambda s: _gauge(s, "service_queue_depth_current"),
            direction="above",
            warn=32,
            crit=256,
        ),
        HealthRule(
            name="early_stop_ratio",
            description="precision requests stopped by the rule, not the cap",
            extract=lambda s: _ratio(
                s, "service_early_stops_total",
                ("service_precision_requests_total",),
            ),
            direction="below",
            warn=0.5,
            crit=0.1,
        ),
        HealthRule(
            name="evidence_hit_rate",
            description="precision requests seeded from pooled evidence",
            extract=lambda s: _ratio(
                s, "service_evidence_hits_total",
                ("service_evidence_hits_total", "service_evidence_misses_total"),
            ),
            direction="below",
            warn=0.25,
            crit=0.02,
        ),
        HealthRule(
            name="cache_hit_rate",
            description="exact-plane lookups served from cache",
            extract=lambda s: _ratio(
                s, "service_cache_hits_total",
                ("service_cache_hits_total", "service_cache_misses_total"),
            ),
            direction="below",
            warn=0.05,
        ),
        HealthRule(
            name="vectorized_fallbacks",
            description="auto-mode requests that lost the vectorized kernel",
            extract=lambda s: _counter_sum(
                s, "service_vectorized_fallback_total"
            ),
            direction="above",
            warn=0,
        ),
        HealthRule(
            name="telemetry_duplicates",
            description="worker telemetry payloads dropped as duplicates",
            extract=lambda s: _counter_sum(
                s, "telemetry_chunks_duplicate_total"
            ),
            direction="above",
            warn=0,
        ),
        HealthRule(
            name="frontend_shed_rate",
            description="front-end requests shed by admission control",
            extract=_frontend_shed_rate,
            direction="above",
            warn=0.01,
            crit=0.2,
        ),
        HealthRule(
            name="frontend_queue_saturation",
            description="worst shard queue depth over capacity",
            extract=lambda s: _gauge(s, "frontend_queue_saturation"),
            direction="above",
            warn=0.5,
            crit=0.9,
        ),
    )


def evaluate_health(
    snapshot: Mapping[str, Any],
    rules: Sequence[HealthRule] | None = None,
    slo_ms: float = 250.0,
) -> HealthReport:
    """Evaluate *rules* (default: :func:`default_rules`) on *snapshot*."""
    if rules is None:
        rules = default_rules(slo_ms=slo_ms)
    return HealthReport(results=tuple(r.evaluate(snapshot) for r in rules))


def iter_stats(lines: Iterable[str]) -> Iterator[dict[str, Any]]:
    """The ``stats`` events among JSON-lines *lines* (a ``--stats-file``).

    Blank lines, lines that are not JSON objects and other events are
    skipped, so a file being appended to mid-line never raises.
    """
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict) and obj.get("event", "stats") == "stats":
            yield obj


def load_stats_snapshot(path: str) -> dict[str, Any] | None:
    """The last ``stats`` event in a ``--stats-file`` JSONL, or ``None``."""
    last: dict[str, Any] | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for last in iter_stats(fh):
            pass
    return last
