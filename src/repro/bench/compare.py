"""Baseline comparison and regression gating for bench artifacts.

The comparison walks the union of metric names in two artifacts, and
one rule judges every row: a metric regresses when its delta exceeds
the entry's ``tolerance_pct`` in either direction, when it moves from
zero (no percentage exists), or when it is present on one side only,
so a count gate cannot vanish from the suite unnoticed.

``repro bench --compare BASELINE.json`` prints :meth:`CompareReport.format`
and exits nonzero when :attr:`CompareReport.ok` is false.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["CompareReport", "CompareRow", "compare_artifacts"]


@dataclass
class CompareRow:
    """One metric's baseline-vs-current verdict."""

    name: str
    unit: str
    baseline: float | None
    current: float | None
    delta_pct: float | None
    tolerance_pct: float
    regressed: bool
    note: str = ""


@dataclass
class CompareReport:
    """All rows plus the overall verdict."""

    rows: list[CompareRow] = field(default_factory=list)
    baseline_sha: str = "unknown"
    current_sha: str = "unknown"

    @property
    def regressions(self) -> list[CompareRow]:
        return [r for r in self.rows if r.regressed]

    @property
    def ok(self) -> bool:
        """True when no metric regressed."""
        return not self.regressions

    def format(self) -> str:
        """Human-readable report (fixed-width table + verdict)."""
        lines = [
            f"bench compare: baseline {self.baseline_sha} -> "
            f"current {self.current_sha}",
            f"{'metric':<38} {'baseline':>12} {'current':>12} "
            f"{'delta':>9}  verdict",
        ]
        for r in sorted(self.rows, key=lambda r: (not r.regressed, r.name)):
            base = "-" if r.baseline is None else f"{r.baseline:.4g}"
            cur = "-" if r.current is None else f"{r.current:.4g}"
            delta = "-" if r.delta_pct is None else f"{r.delta_pct:+.1f}%"
            verdict = "REGRESSED" if r.regressed else "ok"
            if r.note:
                verdict += f" [{r.note}]"
            lines.append(
                f"{r.name:<38} {base:>12} {cur:>12} {delta:>9}  {verdict}"
            )
        failures = self.regressions
        if failures:
            lines.append(
                f"FAIL: {len(failures)} metric(s) regressed: "
                + ", ".join(r.name for r in failures)
            )
        else:
            lines.append(f"OK: {len(self.rows)} metric(s) compared, no "
                         "regressions")
        return "\n".join(lines)


def _delta_pct(baseline: float, current: float) -> float | None:
    """Relative change in percent; ``None`` when it is undefined.

    A zero baseline admits no percentage (every report renderer would
    otherwise have to special-case ``inf``/JSON-illegal values), so a
    nonzero-from-zero move returns ``None`` and the caller annotates
    the row ``new from zero``.
    """
    if baseline == 0:
        return 0.0 if current == 0 else None
    return (current - baseline) / abs(baseline) * 100.0


def compare_artifacts(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
) -> CompareReport:
    """Compare two artifact documents (see :mod:`repro.bench.artifact`)."""
    report = CompareReport(
        baseline_sha=str(baseline.get("git_sha", "unknown")),
        current_sha=str(current.get("git_sha", "unknown")),
    )
    base_metrics: Mapping[str, Any] = baseline.get("metrics", {})
    cur_metrics: Mapping[str, Any] = current.get("metrics", {})
    for name in sorted(set(base_metrics) | set(cur_metrics)):
        base_entry = base_metrics.get(name)
        cur_entry = cur_metrics.get(name)
        if base_entry is None or cur_entry is None:
            missing = "baseline" if base_entry is None else "current"
            entry = cur_entry if base_entry is None else base_entry
            report.rows.append(CompareRow(
                name=name,
                unit=str(entry.get("unit", "")),
                baseline=None if base_entry is None else float(base_entry["value"]),
                current=None if cur_entry is None else float(cur_entry["value"]),
                delta_pct=None,
                tolerance_pct=0.0,
                regressed=True,
                note=f"missing in {missing}",
            ))
            continue

        base_val = float(base_entry["value"])
        cur_val = float(cur_entry["value"])
        delta = _delta_pct(base_val, cur_val)
        tol = float(cur_entry.get("tolerance_pct", 0.0))
        report.rows.append(CompareRow(
            name=name,
            unit=str(cur_entry.get("unit", "")),
            baseline=base_val,
            current=cur_val,
            delta_pct=delta,
            tolerance_pct=tol,
            # A nonzero-from-zero move has no percentage but is always a
            # behavioural change, so it regresses regardless of tolerance.
            regressed=delta is None or abs(delta) > tol,
            note="" if delta is not None else "new from zero",
        ))
    return report
