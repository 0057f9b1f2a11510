"""Process-local metrics: counters, gauges, fixed-bucket histograms.

The paper's complexity claims (``O(log* n)`` / ``O(log n)`` /
``O(log^2 n)`` rounds) are *distributional* statements, and so are the
service-level questions an operator asks ("how do request latencies
spread?", "how many trials land per chunk?").  Plain monotonic counters
cannot answer either — this module provides the registry the whole
codebase reports through:

* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — the three
  metric kinds, each thread-safe and allocation-light;
* :class:`MetricFamily` — a named metric with optional Prometheus-style
  labels (``family.labels(algorithm="luby_fast").observe(7)``);
* :class:`MetricsRegistry` — get-or-create families by name, render the
  whole registry as Prometheus text exposition or a JSON-safe snapshot.

Registry resolution follows a two-level scheme: a process-global default
registry (:func:`default_registry`) plus a :func:`use_registry` context
manager that rebinds :func:`get_registry` for the current context.  The
estimation service binds its own registry around trial execution, so
engine-level observations (rounds per trial, messages per run) made deep
inside :mod:`repro.analysis.montecarlo` land in the *serving* registry
without threading a handle through every call.

:func:`set_enabled` is the global kill switch: with observability
disabled every hook short-circuits, which
``benchmarks/test_engine_speed.py`` uses to bound instrumentation
overhead on the warm path (<5%).
"""

from __future__ import annotations

import bisect
import math
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "label_key",
    "parse_label_key",
    "get_registry",
    "default_registry",
    "use_registry",
    "set_enabled",
    "enabled",
    "LATENCY_BUCKETS",
    "ROUND_BUCKETS",
    "COUNT_BUCKETS",
    "AGE_BUCKETS",
]

#: Request/span latency buckets (seconds) — sub-ms inline hits up to slow
#: multi-chunk requests.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Round-count buckets — covers O(log* n) through O(log^2 n) regimes.
ROUND_BUCKETS: tuple[float, ...] = (
    1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256,
)

#: Generic size buckets (trials per chunk, queue depth, messages).
COUNT_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
)

#: Cache-entry age at hit (seconds).
AGE_BUCKETS: tuple[float, ...] = (
    0.01, 0.05, 0.25, 1.0, 5.0, 15.0, 60.0, 300.0, 1800.0, 3600.0,
)

_enabled = True


def set_enabled(flag: bool) -> None:
    """Globally enable/disable observability hooks (spans, bridge, logs)."""
    global _enabled
    _enabled = bool(flag)


def enabled() -> bool:
    """Whether observability hooks are active (default: yes)."""
    return _enabled


def _fmt_number(value: float) -> str:
    """Prometheus-style value rendering (integers without trailing .0)."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _parse_number(text: str) -> float:
    """Inverse of :func:`_fmt_number` (``+Inf`` → ``math.inf``)."""
    if text == "+Inf":
        return math.inf
    return float(text)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text-format spec.

    Backslash, double-quote, and line-feed are the three characters the
    exposition format requires escaping inside quoted label values.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` line per the text-format spec (``\\`` and LF)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


class Counter:
    """A monotonically increasing value."""

    kind = "counter"
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        """Zero the counter (test isolation; not for production flows)."""
        with self._lock:
            self._value = 0.0

    def snapshot_value(self) -> float:
        return self._value

    def merge_snapshot_value(self, value: float) -> None:
        """Fold a worker counter delta in (plain addition)."""
        self.inc(float(value))


class Gauge:
    """A value that can go up and down (queue depth, resident trials)."""

    kind = "gauge"
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self.set(0.0)

    def snapshot_value(self) -> float:
        return self._value

    def merge_snapshot_value(self, value: float) -> None:
        """Adopt the most recent reported value (gauges are last-write)."""
        self.set(float(value))


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` (cumulative) semantics.

    Buckets are upper bounds; an implicit ``+Inf`` bucket catches the
    tail.  ``observe`` is O(log #buckets) (bisect) plus one lock.
    """

    kind = "histogram"
    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be distinct")
        self._lock = threading.Lock()
        self.bounds = tuple(bounds)
        self._counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch of observations under one lock acquisition.

        Hot loops (per-trial round counts) accumulate locally and flush
        once per chunk — same totals, a fraction of the locking and
        boxing traffic of per-value :meth:`observe` calls.
        """
        if not values:
            return
        bounds = self.bounds
        idxs = [bisect.bisect_left(bounds, v) for v in values]
        total = float(sum(values))
        with self._lock:
            counts = self._counts
            for idx in idxs:
                counts[idx] += 1
            self._sum += total
            self._count += len(values)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at ``+Inf``."""
        with self._lock:
            counts = list(self._counts)
        out: list[tuple[float, int]] = []
        running = 0
        for bound, c in zip(self.bounds, counts):
            running += c
            out.append((bound, running))
        out.append((math.inf, running + counts[-1]))
        return out

    def quantile(self, q: float) -> float | None:
        """Estimate the *q*-quantile by linear interpolation over buckets.

        Uses the Prometheus ``histogram_quantile`` convention: the mass
        inside each bucket is assumed uniform between the previous upper
        bound and its own (the first bucket's lower edge is 0, matching
        the non-negative quantities this registry records).  Observations
        in the ``+Inf`` bucket clamp to the largest finite bound — a
        known-floor estimate rather than an invented tail.  Returns
        ``None`` for an empty histogram (callers render it as ``-``).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile q must be within [0, 1]")
        cum = self.cumulative_buckets()
        total = cum[-1][1]
        if total == 0:
            return None
        target = q * total
        prev_bound = 0.0
        prev_cum = 0
        for bound, c in cum:
            if c >= target:
                if bound == math.inf:
                    return prev_bound
                if c == prev_cum:
                    return bound
                frac = (target - prev_cum) / (c - prev_cum)
                return prev_bound + frac * (bound - prev_bound)
            prev_bound, prev_cum = bound, c
        return prev_bound  # pragma: no cover - cum always reaches total

    def snapshot_value(self) -> dict[str, Any]:
        buckets = {
            _fmt_number(bound): cum for bound, cum in self.cumulative_buckets()
        }
        return {"count": self._count, "sum": self._sum, "buckets": buckets}

    def merge_snapshot_value(self, snap: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot_value` dict from another histogram in.

        The snapshot carries *cumulative* bucket counts keyed by rendered
        upper bound; they are decumulated back to per-bucket increments
        and added under one lock, so merging worker deltas is exact
        (counter-correct counts and sums, not approximations).  Bounds
        present in the snapshot but unknown to this histogram raise —
        merging histograms with different bucket layouts would silently
        reshape the distribution.
        """
        buckets = snap.get("buckets", {})
        incs = [0] * (len(self.bounds) + 1)
        index = {b: i for i, b in enumerate(self.bounds)}
        index[math.inf] = len(self.bounds)
        prev = 0
        for bound_text, cum in buckets.items():
            bound = _parse_number(bound_text)
            try:
                idx = index[bound]
            except KeyError:
                raise ValueError(
                    f"cannot merge histogram snapshot: unknown bucket "
                    f"bound {bound_text!r}"
                ) from None
            incs[idx] += int(cum) - prev
            prev = int(cum)
        with self._lock:
            for i, d in enumerate(incs):
                self._counts[i] += d
            self._sum += float(snap.get("sum", 0.0))
            self._count += int(snap.get("count", 0))


class MetricFamily:
    """A named metric with zero or more label dimensions.

    An unlabeled family behaves as a single metric (``family.inc()``,
    ``family.observe(x)``); a labeled family hands out per-label-value
    children via :meth:`labels`.
    """

    def __init__(
        self,
        name: str,
        help: str,
        kind: type,
        labelnames: Sequence[str] = (),
        **metric_kwargs: Any,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._kind = kind
        self._metric_kwargs = metric_kwargs
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Any] = {}

    @property
    def kind(self) -> str:
        return self._kind.kind

    def labels(self, **labelvalues: Any):
        """The child metric for one combination of label values."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[k]) for k in self.labelnames)
        child = self._children.get(key)
        if child is not None:
            return child
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._kind(**self._metric_kwargs)
                self._children[key] = child
        return child

    def _solo(self):
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} is labeled {self.labelnames}; "
                "use .labels(...)"
            )
        return self.labels()

    # Convenience delegation for the (common) unlabeled case.
    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def observe_many(self, values: Sequence[float]) -> None:
        self._solo().observe_many(values)

    def quantile(self, q: float) -> float | None:
        return self._solo().quantile(q)

    @property
    def value(self) -> float:
        return self._solo().value

    @property
    def count(self) -> int:
        return self._solo().count

    def reset(self) -> None:
        with self._lock:
            for child in self._children.values():
                child.reset()

    def children(self) -> list[tuple[dict[str, str], Any]]:
        """``(labels_dict, metric)`` pairs, insertion-ordered."""
        with self._lock:
            items = list(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), metric) for key, metric in items
        ]


def _label_suffix(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in labels.items()
    )
    return "{" + inner + "}"


def label_key(labels: Mapping[str, str]) -> str:
    """Render labels as the ``'k="v",...'`` snapshot key (escaped)."""
    return ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in labels.items()
    )


def parse_label_key(key: str) -> dict[str, str]:
    """Inverse of :func:`label_key`: ``'k="v",...'`` → ``{"k": "v"}``.

    Understands the text-format escapes (``\\\\``, ``\\"``, ``\\n``) so
    snapshot keys survive a render/parse round trip even for hostile
    label values.  Used when merging worker snapshots back into the
    parent registry.
    """
    labels: dict[str, str] = {}
    i, n = 0, len(key)
    while i < n:
        eq = key.index("=", i)
        name = key[i:eq]
        if key[eq + 1] != '"':
            raise ValueError(f"malformed label key: {key!r}")
        j = eq + 2
        out: list[str] = []
        while True:
            ch = key[j]
            if ch == "\\":
                nxt = key[j + 1]
                out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, nxt))
                j += 2
            elif ch == '"':
                j += 1
                break
            else:
                out.append(ch)
                j += 1
        labels[name] = "".join(out)
        if j < n:
            if key[j] != ",":
                raise ValueError(f"malformed label key: {key!r}")
            j += 1
        i = j
    return labels


class MetricsRegistry:
    """Named metric families with dual exposition (Prometheus text + JSON)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------ #
    # get-or-create
    # ------------------------------------------------------------------ #
    def _family(
        self,
        name: str,
        help: str,
        kind: type,
        labelnames: Sequence[str],
        **metric_kwargs: Any,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = MetricFamily(
                        name, help, kind, labelnames, **metric_kwargs
                    )
                    self._families[name] = family
        if family._kind is not kind or family.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{family.kind}{family.labelnames} — cannot redeclare as "
                f"{kind.kind}{tuple(labelnames)}"
            )
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        """Get or create a counter family."""
        return self._family(name, help, Counter, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        """Get or create a gauge family."""
        return self._family(name, help, Gauge, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] | None = None,
        labelnames: Sequence[str] = (),
    ) -> MetricFamily:
        """Get or create a fixed-bucket histogram family."""
        return self._family(
            name,
            help,
            Histogram,
            labelnames,
            buckets=tuple(buckets) if buckets is not None else LATENCY_BUCKETS,
        )

    def families(self) -> list[MetricFamily]:
        with self._lock:
            return list(self._families.values())

    def quantiles(
        self, name: str, qs: Sequence[float] = (0.5, 0.95, 0.99)
    ) -> dict[str, dict[str, float | None]]:
        """Percentile summaries for histogram family *name*.

        Returns ``{label_key: {"count", "mean", "p50", ...}}`` with one
        ``p<percentile>`` entry per requested quantile (``0.5`` → ``p50``,
        ``0.99`` → ``p99``) — the compact view ``repro stats`` and the
        ``--stats-every`` snapshots surface instead of raw bucket dumps.
        Empty dict when the family does not exist or is not a histogram.
        """
        family = self._families.get(name)
        if family is None or family.kind != "histogram":
            return {}
        out: dict[str, dict[str, float | None]] = {}
        for labels, metric in family.children():
            key = label_key(labels)
            count = metric.count
            summary: dict[str, float | None] = {
                "count": float(count),
                "mean": (metric.sum / count) if count else None,
            }
            for q in qs:
                label = f"p{q * 100:g}".replace(".", "_")
                summary[label] = metric.quantile(q)
            out[key] = summary
        return out

    def aggregated_quantiles(
        self,
        name: str,
        qs: Sequence[float] = (0.5, 0.95, 0.99),
        drop_labels: Sequence[str] = ("worker",),
    ) -> dict[str, dict[str, float | None]]:
        """Like :meth:`quantiles`, but with *drop_labels* summed away.

        Histogram children whose labels differ only in the dropped
        dimensions are merged (bucket-wise, via the snapshot/merge path,
        so counts and sums stay exact) before quantiles are computed.
        The canonical use is collapsing per-worker series — latency
        percentiles across the whole fleet rather than one line per
        ``worker="3"`` — which is what ``repro stats`` and ``repro top``
        want.  Empty dict when the family is absent or not a histogram.
        """
        family = self._families.get(name)
        if family is None or family.kind != "histogram":
            return {}
        dropped = set(drop_labels)
        merged: dict[str, Histogram] = {}
        for labels, metric in family.children():
            key = label_key(
                {k: v for k, v in labels.items() if k not in dropped}
            )
            agg = merged.get(key)
            if agg is None:
                agg = Histogram(metric.bounds)
                merged[key] = agg
            agg.merge_snapshot_value(metric.snapshot_value())
        out: dict[str, dict[str, float | None]] = {}
        for key, metric in merged.items():
            count = metric.count
            summary: dict[str, float | None] = {
                "count": float(count),
                "mean": (metric.sum / count) if count else None,
            }
            for q in qs:
                label = f"p{q * 100:g}".replace(".", "_")
                summary[label] = metric.quantile(q)
            out[key] = summary
        return out

    def reset(self) -> None:
        """Zero every metric (test isolation)."""
        for family in self.families():
            family.reset()

    # ------------------------------------------------------------------ #
    # exposition
    # ------------------------------------------------------------------ #
    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: list[str] = []
        for family in self.families():
            children = family.children()
            if not children:
                continue
            if family.help:
                lines.append(
                    f"# HELP {family.name} {_escape_help(family.help)}"
                )
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labels, metric in children:
                if family.kind == "histogram":
                    for bound, cum in metric.cumulative_buckets():
                        bl = dict(labels)
                        bl["le"] = _fmt_number(bound)
                        lines.append(
                            f"{family.name}_bucket{_label_suffix(bl)} {cum}"
                        )
                    suffix = _label_suffix(labels)
                    lines.append(
                        f"{family.name}_sum{suffix} {_fmt_number(metric.sum)}"
                    )
                    lines.append(f"{family.name}_count{suffix} {metric.count}")
                else:
                    lines.append(
                        f"{family.name}{_label_suffix(labels)} "
                        f"{_fmt_number(metric.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe snapshot: ``{kind: {name: {label_key: value}}}``.

        ``label_key`` is ``'k="v",...'`` (empty string for unlabeled
        metrics); histogram values are ``{count, sum, buckets}`` with
        cumulative bucket counts keyed by upper bound.
        """
        out: dict[str, dict[str, dict[str, Any]]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        section = {"counter": "counters", "gauge": "gauges", "histogram": "histograms"}
        for family in self.families():
            children = family.children()
            if not children:
                continue
            series: dict[str, Any] = {}
            for labels, metric in children:
                series[label_key(labels)] = metric.snapshot_value()
            out[section[family.kind]][family.name] = series
        return out


# --------------------------------------------------------------------- #
# registry resolution: process default + context override
# --------------------------------------------------------------------- #
_DEFAULT_REGISTRY = MetricsRegistry()
_registry_var: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_obs_registry", default=None
)


def default_registry() -> MetricsRegistry:
    """The process-global registry (engine-level observations land here
    unless a context registry is bound)."""
    return _DEFAULT_REGISTRY


def get_registry() -> MetricsRegistry:
    """The currently bound registry (:func:`use_registry`), else the
    process default."""
    bound = _registry_var.get()
    return bound if bound is not None else _DEFAULT_REGISTRY


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Bind *registry* as the context's :func:`get_registry` target.

    The estimation service binds its own registry around dispatch so
    engine observations made during trial execution feed the serving
    registry rather than the process default.
    """
    token = _registry_var.set(registry)
    try:
        yield registry
    finally:
        _registry_var.reset(token)
