"""Per-layer metrics from a traced run's spans.

Every metric is computed for every workload; a layer a workload bypasses
reads 0 (no calls, no time).  Timings are a median (``.p50``) and the
highest percentile with at least ten samples beyond it (``.tail``);
:func:`per_layer` also returns each timing's sample count and percentile.

Spans are matched across processes by key (see ``tracer``): request id
between the front end and a shard, chunk id between a pool dispatch and
the worker that ran it, trace id from scheduler-thread work back to the
request whose ``Estimator.submit`` opened that trace.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import stats
from served import FAST_ALGORITHMS
from tracer import KERNELS

#: Timings as (metric, unit); each yields ``.p50`` and ``.tail``.
TIMINGS = (
    ("frontend.self_ms", "ms"),
    ("frontend.parse_ms", "ms"),
    ("shard.pipe_ms", "ms"),
    ("shard.encode_ms", "ms"),
    ("shard.queue_wait_ms", "ms"),
    ("service.request_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("cache.lookup_us", "us"),
    ("cache.deposit_us", "us"),
    ("pool.create_ms", "ms"),
    ("pool.dispatch_ms", "ms"),
    ("graphs.build_ms", "ms"),
    ("graphs.hash_ms", "ms"),
    ("telemetry.absorb_us", "us"),
)

#: Every per-layer metric as (name, unit, better), in report order.
PER_LAYER = (
    *[(f"{name}.{part}", unit, "lower") for name, unit in TIMINGS for part in ("p50", "tail")],
    ("frontend.route_skew", "ratio", "lower"),
    ("frontend.admitted", "count", "higher"),
    ("frontend.shed", "count", "lower"),
    ("service.rounds", "count/req", "lower"),
    ("service.trials_run", "trials/req", "lower"),
    ("cache.hit_share", "fraction", "higher"),
    ("cache.evidence_hit_share", "fraction", "higher"),
    ("pool.created", "count", "lower"),
    ("pool.chunks", "count", "lower"),
    ("pool.busy_share", "fraction", "higher"),
    ("graphs.builds_per_req", "count/req", "lower"),
    *[(f"engine.{alg}.trials_per_s", "trials/s", "higher") for alg in FAST_ALGORITHMS],
    *[(f"kernel.{k}.calls", "count", "lower") for k in KERNELS],
    *[(f"kernel.{k}.us_per_call", "us", "lower") for k in KERNELS],
    *[(f"kernel.{k}.mb_computed", "MB", "lower") for k in KERNELS],
    ("telemetry.chunks", "count", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("warm.prime_s", "s", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
    ("trace.unattributed_share", "fraction", "lower"),
    ("leak.processes", "count", "lower"),
    ("leak.shm_segments", "count", "lower"),
)


def _shed(reply: dict) -> bool:
    err = reply.get("error")
    code = err.get("code") if isinstance(err, dict) else reply.get("code")
    return code == "overloaded"


def _dur(span: dict) -> int:
    return span["e"] - span["s"]


def _iv(span: dict) -> tuple[int, int]:
    return span["s"], span["e"]


def _ns(seconds: float) -> int:
    return int(round(seconds * 1e9))


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: list[dict], run: dict, overhead_share: float) -> tuple[dict, dict]:
    """``(metrics, samples)`` for a traced *run* of a workload.

    *run* is the normalised record ``run.py`` builds for the traced run;
    *overhead_share* compares it with the untraced run of the workload.
    """
    lo, hi = (_ns(t) for t in run["window"])
    by: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        if lo <= span["s"] <= hi:
            by[span["n"]].append(span)
    requests = run["requests"]
    replies = [r["reply"] for r in requests if r["reply"] is not None]

    trace_rid = {s["trace"]: s["r"] for s in by["service.submit"] if s.get("trace")}
    chunk_trace = {s["chunk"]: s["trace"] for s in by["pool.inflight"] if s.get("chunk")}
    engine_by_chunk = {s["chunk"]: s for s in by["engine.chunk"] if s.get("chunk")}
    estimate_by_rid = {s["r"]: s for s in by["service.estimate"] if s.get("r")}

    def owner(span: dict) -> str | None:
        return (
            span.get("r")
            or trace_rid.get(span.get("trace"))
            or trace_rid.get(chunk_trace.get(span.get("chunk")))
        )

    timings: dict[str, list[float]] = {}
    ms = lambda ns: ns / 1e6  # noqa: E731
    us = lambda ns: ns / 1e3  # noqa: E731

    submits_under = defaultdict(list)
    for s in by["shard.submit"]:
        submits_under[(s["pid"], s["p"])].append(_iv(s))
    timings["frontend.self_ms"] = [
        ms(stats.self_time(_iv(h), submits_under[(h["pid"], h["id"])]))
        for h in by["frontend.handle_line"]
    ]
    timings["frontend.parse_ms"] = [ms(_dur(s)) for s in by["frontend.parse"]]
    pipe, shard_wait = [], []
    for sub in by["shard.submit"]:
        est = estimate_by_rid.get(sub.get("r"))
        if est is not None:
            pipe.append(ms(stats.self_time(_iv(sub), [_iv(est)])))
            shard_wait.append(ms(est["s"] - sub["s"]))
    timings["shard.pipe_ms"] = pipe
    timings["shard.queue_wait_ms"] = shard_wait
    timings["shard.encode_ms"] = [ms(_dur(s)) for s in by["shard.encode"]]

    requests_spans = by["service.estimate"] or by["client.request"]
    timings["service.request_ms"] = [ms(_dur(s)) for s in requests_spans]
    first_chunk: dict[str, int] = {}
    for s in by["pool.inflight"]:
        rid = owner(s)
        if rid is not None:
            first_chunk[rid] = min(first_chunk.get(rid, s["s"]), s["s"])
    timings["service.queue_wait_ms"] = [
        ms(first_chunk[s["r"]] - s["s"]) for s in by["service.submit"] if s.get("r") in first_chunk
    ]
    timings["cache.lookup_us"] = [us(_dur(s)) for s in by["cache.lookup"]]
    timings["cache.deposit_us"] = [us(_dur(s)) for s in by["cache.deposit"]]
    timings["pool.create_ms"] = [ms(_dur(s)) for s in by["pool.create"]]
    timings["pool.dispatch_ms"] = [
        ms(stats.self_time(_iv(s), [_iv(engine_by_chunk[s["chunk"]])]))
        for s in by["pool.inflight"]
        if s.get("chunk") in engine_by_chunk
    ]
    timings["graphs.build_ms"] = [ms(_dur(s)) for s in by["graphs.build"]]
    timings["graphs.hash_ms"] = [ms(_dur(s)) for s in by["graphs.hash"]]
    timings["telemetry.absorb_us"] = [us(_dur(s)) for s in by["telemetry.absorb"]]

    metrics: dict[str, float] = {}
    samples: dict[str, dict] = {}
    for name, _unit in TIMINGS:
        summary = stats.summarize(timings[name])
        metrics[f"{name}.p50"] = summary["p50"]
        metrics[f"{name}.tail"] = summary["tail"]
        samples[name] = {"n": summary["n"], "tail_q": summary["tail_q"]}

    routes = Counter(s["shard"] for s in by["frontend.route"])
    shards = run["shards"]
    metrics["frontend.route_skew"] = (
        _share(max(routes.values()), sum(routes.values()) / shards) if routes and shards else 0.0
    )
    metrics["frontend.admitted"] = len(by["shard.submit"])
    metrics["frontend.shed"] = sum(1 for r in replies if _shed(r))
    n_req = len(requests)
    metrics["service.rounds"] = _share(len(by["service.check"]), n_req)
    metrics["service.trials_run"] = _share(sum(r.get("trials_run", 0) for r in replies), len(replies))
    metrics["cache.hit_share"] = _share(sum(1 for r in replies if r.get("cached")), len(replies))
    v2 = [r for r in replies if r.get("v") == 2 and "error" not in r]
    metrics["cache.evidence_hit_share"] = _share(
        sum(1 for r in v2 if r.get("prior_trials", 0) > 0 and r.get("trials_run") == 0), len(v2)
    )
    metrics["pool.created"] = len(by["pool.create"])
    metrics["pool.chunks"] = len(by["pool.inflight"])
    busy_ns = sum(_dur(s) for s in by["engine.chunk"])
    metrics["pool.busy_share"] = _share(busy_ns, run["workers"] * (hi - lo))
    metrics["graphs.builds_per_req"] = _share(len(by["graphs.build"]), n_req)

    engine = defaultdict(lambda: [0, 0])
    kernels = {k: [0, 0, 0] for k in KERNELS}
    for s in by["engine.chunk"]:
        engine[s["alg"]][0] += s["trials"]
        engine[s["alg"]][1] += _dur(s)
        for k, cell in s.get("k", {}).items():
            for i in range(3):
                kernels[k][i] += cell[i]
    for alg in FAST_ALGORITHMS:
        trials, ns = engine[alg]
        metrics[f"engine.{alg}.trials_per_s"] = _share(trials, ns / 1e9)
    for k, (calls, ns, nbytes) in kernels.items():
        metrics[f"kernel.{k}.calls"] = calls
        metrics[f"kernel.{k}.us_per_call"] = _share(ns / 1e3, calls)
        metrics[f"kernel.{k}.mb_computed"] = nbytes / 1e6
    metrics["telemetry.chunks"] = len(by["telemetry.absorb"])

    lateness = run["lateness_s"]
    metrics["loadgen.late_p99_ms"] = stats.percentile(lateness, 99) * 1e3 if lateness else 0.0
    metrics["warm.prime_s"] = run["prime_s"]
    metrics["trace.overhead_share"] = overhead_share
    metrics["trace.unattributed_share"] = unattributed_share(requests, spans, owner, lo, hi)
    metrics["leak.processes"] = run["leak_processes"]
    metrics["leak.shm_segments"] = run["leak_shm"]
    return metrics, samples


def unattributed_share(requests, spans, owner, lo: int, hi: int) -> float:
    """Share of client latency (write → reply) that no layer span covers.

    The client's own ``client.request`` span is not a layer and is left
    out; a span counts for the request it can be traced back to.
    """
    by_owner: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span["n"] != "client.request" and lo <= span["s"] <= hi:
            rid = owner(span)
            if rid is not None:
                by_owner[rid].append(_iv(span))
    total = uncovered = 0
    for r in requests:
        if r["replied"] is None:
            continue
        start, end = _ns(r["sent"]), _ns(r["replied"])
        total += end - start
        uncovered += (end - start) - stats.covered((start, end), by_owner[r["rid"]])
    return _share(uncovered, total)
