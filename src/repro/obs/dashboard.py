"""The ``repro top`` live terminal dashboard.

Consumes the JSON stats snapshots the service emits (``--stats-every`` /
``--stats-file`` on ``serve``/``batch``) and renders a refreshing ANSI frame: per-worker utilization, dispatcher
queue depth, cache/evidence hit rates, request-latency percentiles, and
SLO budget burn against a configurable latency target.

All rates are *windowed*: the dashboard keeps a short history of
snapshots and differences the newest against the oldest one inside the
window, so a burst five minutes ago doesn't pollute the current view.
Latency percentiles over the window are recomputed from differenced
cumulative histogram buckets: :func:`~repro.obs.metrics.merged_buckets`
reads each snapshot and :func:`~repro.obs.metrics.bucket_quantile` — the
interpolation behind :meth:`~repro.obs.metrics.Histogram.quantile` and
``repro health`` — runs over the window's delta distribution.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from typing import Any, IO, Mapping

from .health import evaluate_health, iter_stats
from .metrics import bucket_quantile, merged_buckets, parse_label_key

__all__ = ["TopDashboard", "snapshot_from_registry", "run_top"]

#: Severity ranking used when a row is governed by several health rules.
_STATUS_ORDER = ("ok", "warn", "crit")

#: ANSI colors for health-driven row highlighting.
_COLOR = {"warn": "\x1b[33m", "crit": "\x1b[31m"}
_RESET = "\x1b[0m"


def _highlight(line: str, status: str | None, ansi: bool) -> str:
    """Decorate a dashboard row according to its health status.

    Plain frames get ``!``/``!!`` suffix markers (script/CI friendly);
    ANSI frames additionally color the row yellow (warn) or red (crit).
    """
    if status in (None, "ok"):
        return line
    mark = " !!" if status == "crit" else " !"
    if ansi and status in _COLOR:
        return f"{_COLOR[status]}{line}{mark}{_RESET}"
    return line + mark

#: ANSI clear-screen + cursor-home prefix used between refresh frames.
ANSI_REFRESH = "\x1b[2J\x1b[H"


def snapshot_from_registry(
    registry, requests_served: int | None = None
) -> dict[str, Any]:
    """Build a stats-event-shaped snapshot from a live registry.

    The base of the document ``repro serve --stats-every`` writes (the
    service loop adds ``latency_ms`` and ``evidence``) and of the front
    end's snapshots.
    """
    snapshot: dict[str, Any] = {
        "event": "stats",
        "ts": time.time(),
        "metrics": registry.snapshot(),
    }
    if requests_served is not None:
        snapshot["requests_served"] = requests_served
    return snapshot


def _delta_buckets(
    new: list[tuple[float, float]], old: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Windowed cumulative buckets: newest minus oldest-in-window."""
    old_map = dict(old)
    return [(b, max(0.0, c - old_map.get(b, 0.0))) for b, c in new]


def _fraction_over(pairs: list[tuple[float, float]], threshold: float) -> float | None:
    """Fraction of windowed observations above *threshold* (interpolated)."""
    if not pairs:
        return None
    total = pairs[-1][1]
    if total <= 0:
        return None
    prev_bound, prev_cum = 0.0, 0.0
    cum_at = total  # everything below threshold if bounds never reach it
    for bound, cum in pairs:
        if bound >= threshold:
            if bound == float("inf") or cum == prev_cum:
                cum_at = cum if bound <= threshold else prev_cum
            else:
                frac = (threshold - prev_bound) / (bound - prev_bound)
                cum_at = prev_cum + frac * (cum - prev_cum)
            break
        prev_bound, prev_cum = bound, cum
    return max(0.0, min(1.0, 1.0 - cum_at / total))


def _fmt(value: float | None, pattern: str = "{:.1f}") -> str:
    return "-" if value is None else pattern.format(value)


class TopDashboard:
    """Windowed aggregation + rendering of service stats snapshots."""

    def __init__(
        self,
        slo_ms: float = 250.0,
        slo_target: float = 0.95,
        window_s: float = 60.0,
        history: int = 512,
    ) -> None:
        if not 0.0 < slo_target < 1.0:
            raise ValueError("slo_target must be in (0, 1)")
        self.slo_ms = float(slo_ms)
        self.slo_target = float(slo_target)
        self.window_s = float(window_s)
        self._points: deque[dict[str, Any]] = deque(maxlen=history)

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def update(self, snapshot: Mapping[str, Any]) -> None:
        """Ingest one stats snapshot (non-stats events are ignored)."""
        if snapshot.get("event", "stats") != "stats":
            return
        point = dict(snapshot)
        point.setdefault("ts", time.time())
        self._points.append(point)

    def _window(self) -> tuple[dict[str, Any] | None, dict[str, Any] | None]:
        """(oldest-in-window, newest) snapshot pair."""
        if not self._points:
            return None, None
        newest = self._points[-1]
        cutoff = float(newest["ts"]) - self.window_s
        oldest = None
        for point in self._points:
            if float(point["ts"]) >= cutoff:
                oldest = point
                break
        if oldest is newest:
            # A single in-window point: diff against the previous one if
            # any (rates need two), else against nothing.
            idx = len(self._points) - 2
            oldest = self._points[idx] if idx >= 0 else None
        return oldest, newest

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #
    @staticmethod
    def _series(point: Mapping[str, Any] | None, kind: str, name: str) -> dict:
        if point is None:
            return {}
        return point.get("metrics", {}).get(kind, {}).get(name, {})

    def workers(self) -> list[dict[str, Any]]:
        """Per-worker utilization over the window.

        Utilization is busy-seconds per wall-second: the windowed delta
        of each worker's ``worker_chunk_seconds`` sum divided by the
        window duration.  Without two in-window points (no rate basis),
        utilization is ``None`` but totals still show.
        """
        oldest, newest = self._window()
        new_series = self._series(newest, "histograms", "worker_chunk_seconds")
        old_series = self._series(oldest, "histograms", "worker_chunk_seconds")
        dt = (
            float(newest["ts"]) - float(oldest["ts"])
            if newest is not None and oldest is not None
            else 0.0
        )
        per_worker: dict[str, dict[str, float]] = {}
        for key, value in new_series.items():
            worker = parse_label_key(key).get("worker", "?")
            cell = per_worker.setdefault(
                worker, {"busy_s": 0.0, "chunks": 0.0, "delta_busy_s": 0.0}
            )
            cell["busy_s"] += float(value.get("sum", 0.0))
            cell["chunks"] += float(value.get("count", 0))
            old = old_series.get(key, {})
            cell["delta_busy_s"] += float(value.get("sum", 0.0)) - float(
                old.get("sum", 0.0)
            )
        out = []
        for worker in sorted(per_worker):
            cell = per_worker[worker]
            util = (
                max(0.0, min(1.0, cell["delta_busy_s"] / dt)) if dt > 0 else None
            )
            out.append(
                {
                    "worker": worker,
                    "utilization": util,
                    "busy_s": cell["busy_s"],
                    "chunks": int(cell["chunks"]),
                }
            )
        return out

    def latency_ms(self) -> dict[str, float | None]:
        """Windowed p50/p95/p99 request latency in milliseconds."""
        oldest, newest = self._window()
        new_series = self._series(
            newest, "histograms", "service_request_latency_seconds"
        )
        old_series = self._series(
            oldest, "histograms", "service_request_latency_seconds"
        )
        # Collapse algorithm labels into one distribution.
        pairs = _delta_buckets(
            merged_buckets(new_series), merged_buckets(old_series)
        )
        return {
            "p50": None if (q := bucket_quantile(pairs, 0.50)) is None else q * 1e3,
            "p95": None if (q := bucket_quantile(pairs, 0.95)) is None else q * 1e3,
            "p99": None if (q := bucket_quantile(pairs, 0.99)) is None else q * 1e3,
            "over_slo": _fraction_over(pairs, self.slo_ms / 1e3),
        }

    def slo_burn(self) -> float | None:
        """Error-budget burn rate: windowed over-SLO fraction / allowance.

        1.0 means burning exactly the budget (``1 - slo_target`` of
        requests over target); above 1.0 the SLO is being violated.
        """
        over = self.latency_ms()["over_slo"]
        if over is None:
            return None
        return over / (1.0 - self.slo_target)

    def queue_depth(self) -> float | None:
        _oldest, newest = self._window()
        series = self._series(newest, "gauges", "service_queue_depth_current")
        if "" in series:
            return float(series[""])
        return None

    def _registry_rate(self, oldest, newest, name: str) -> float | None:
        """Windowed per-second rate of a registry counter family."""
        new_series = self._series(newest, "counters", name)
        if not new_series or oldest is None or newest is None:
            return None
        dt = float(newest["ts"]) - float(oldest["ts"])
        if dt <= 0:
            return None
        new_total = sum(float(v) for v in new_series.values())
        old_total = sum(
            float(v) for v in self._series(oldest, "counters", name).values()
        )
        return max(0.0, (new_total - old_total) / dt)

    def frontend(self) -> dict[str, Any] | None:
        """Front-end admission view, or ``None`` when not deployed.

        Stats snapshots from plain ``serve`` carry no ``frontend_*``
        families, so single-process deployments render no extra row.
        """
        oldest, newest = self._window()
        counters = (newest or {}).get("metrics", {}).get("counters", {})
        if not any(name.startswith("frontend_") for name in counters):
            return None

        def total(name: str) -> float:
            return sum(
                float(v) for v in self._series(newest, "counters", name).values()
            )

        admitted = total("frontend_admitted_total")
        shed = total("frontend_shed_total")
        decisions = admitted + shed
        saturation = self._series(newest, "gauges", "frontend_queue_saturation")
        peak = self._series(newest, "gauges", "frontend_admission_peak_load")
        return {
            "admit_rate": self._registry_rate(
                oldest, newest, "frontend_admitted_total"
            ),
            "shed_pct": 100.0 * shed / decisions if decisions > 0 else None,
            "rate_limited": total("frontend_rate_limited_total"),
            "saturation": float(saturation[""]) if "" in saturation else None,
            "peak_load": float(peak[""]) if "" in peak else None,
        }

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #
    def render(self, ansi: bool = False) -> str:
        """One dashboard frame as text (prefixed with a clear when *ansi*)."""
        oldest, newest = self._window()
        lines: list[str] = []
        if newest is None:
            lines.append("repro top — waiting for stats snapshots…")
            return (ANSI_REFRESH if ansi else "") + "\n".join(lines) + "\n"
        ts = time.strftime("%H:%M:%S", time.localtime(float(newest["ts"])))
        served = newest.get("requests_served")
        rate = self._registry_rate(oldest, newest, "service_requests_total")
        lines.append(
            f"repro top — {ts}   requests: "
            f"{served if served is not None else '-'}"
            f"   rate: {_fmt(rate, '{:.1f}/s')}"
            f"   window: {self.window_s:.0f}s"
        )
        health = evaluate_health(newest, slo_ms=self.slo_ms)
        latency = self.latency_ms()
        burn = self.slo_burn()
        burn_mark = ""
        if burn is not None:
            burn_mark = "  !! SLO" if burn > 1.0 else ""
        lines.append(
            _highlight(
                f"latency ms  p50 {_fmt(latency['p50'], '{:.2f}')}"
                f"  p95 {_fmt(latency['p95'], '{:.2f}')}"
                f"  p99 {_fmt(latency['p99'], '{:.2f}')}"
                f"   SLO {self.slo_ms:.0f}ms@p{self.slo_target * 100:.0f}"
                f"  burn {_fmt(burn, '{:.2f}x')}{burn_mark}",
                health.status_of("latency_p99_ms"),
                ansi,
            )
        )
        queue = self.queue_depth()
        cache = health.value_of("cache_hit_rate")
        evidence = health.value_of("evidence_hit_rate")
        lines.append(
            _highlight(
                f"queue depth {_fmt(queue, '{:.0f}')}"
                f"   cache hit "
                f"{_fmt(None if cache is None else cache * 100, '{:.1f}%')}"
                f"   evidence hit "
                f"{_fmt(None if evidence is None else evidence * 100, '{:.1f}%')}",
                health.status_of("queue_depth"),
                ansi,
            )
        )
        front = self.frontend()
        if front is not None:
            statuses = [
                health.status_of("frontend_shed_rate"),
                health.status_of("frontend_queue_saturation"),
            ]
            worst = None
            for s in statuses:
                if s is not None and (
                    worst is None
                    or _STATUS_ORDER.index(s) > _STATUS_ORDER.index(worst)
                ):
                    worst = s
            sat = front["saturation"]
            lines.append(
                _highlight(
                    f"frontend    admit {_fmt(front['admit_rate'], '{:.1f}/s')}"
                    f"   shed {_fmt(front['shed_pct'], '{:.1f}%')}"
                    f"   rate-limited {front['rate_limited']:.0f}"
                    f"   queue sat "
                    f"{_fmt(None if sat is None else sat * 100, '{:.0f}%')}"
                    f"   peak load {_fmt(front['peak_load'], '{:.2f}')}",
                    worst,
                    ansi,
                )
            )
        failing = health.failing()
        if failing:
            worst = ", ".join(
                f"{r.rule.name}={'-' if r.value is None else f'{r.value:.4g}'}"
                for r in failing
            )
            lines.append(
                _highlight(f"health: {health.status}  ({worst})",
                           health.status, ansi)
            )
        else:
            lines.append("health: ok")
        workers = self.workers()
        if workers:
            lines.append("workers:")
            for w in workers:
                util = w["utilization"]
                if util is None:
                    bar = " " * 20
                    pct = "   - "
                else:
                    filled = int(round(util * 20))
                    bar = "#" * filled + "." * (20 - filled)
                    pct = f"{util * 100:4.0f}%"
                lines.append(
                    f"  {w['worker']:<12} [{bar}] {pct}"
                    f"  busy {w['busy_s']:.2f}s  chunks {w['chunks']}"
                )
        else:
            lines.append("workers: (no worker telemetry yet)")
        return (ANSI_REFRESH if ansi else "") + "\n".join(lines) + "\n"


def run_top(
    path: str,
    *,
    interval: float = 2.0,
    slo_ms: float = 250.0,
    slo_target: float = 0.95,
    window_s: float = 60.0,
    once: bool = False,
    out: IO[str] | None = None,
) -> None:
    """Follow a ``--stats-file`` and render dashboard frames.

    Reads every snapshot already in the file, then tails it.  With
    ``once=True`` a single plain frame is rendered after the initial
    read (no ANSI codes) — the scripting/CI mode.
    """
    stream = out if out is not None else sys.stdout
    dash = TopDashboard(slo_ms=slo_ms, slo_target=slo_target, window_s=window_s)
    with open(path, "r", encoding="utf-8") as fh:
        for snapshot in iter_stats(fh):
            dash.update(snapshot)
        if once:
            stream.write(dash.render(ansi=False))
            stream.flush()
            return
        ansi = stream.isatty()
        stream.write(dash.render(ansi=ansi))
        stream.flush()
        while True:
            line = fh.readline()
            if not line:
                time.sleep(interval)
                continue
            for snapshot in iter_stats([line]):
                dash.update(snapshot)
                stream.write(dash.render(ansi=ansi))
                stream.flush()
