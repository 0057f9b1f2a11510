"""The declarative count suite behind ``repro bench``.

Every benchmark is a :class:`BenchCase` whose ``fn()`` returns one or
more *metric entries* (flat dicts, see :mod:`repro.bench.artifact`).
Every metric is a count that the pinned seeds and inputs fix:
synchronous rounds and message totals from
:class:`~repro.runtime.metrics.RunMetrics`, fast-engine iteration
counts, and the service's evidence, routing and telemetry invariants.
Any deviation from the baseline beyond an entry's ``tolerance_pct`` is
a behavioural change (:mod:`repro.bench.compare`).  Wall-clock time is
measured by ``perfbench/``, which runs repeatedly in alternating pairs
and records the host state.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = ["BenchCase", "build_cases", "run_suite"]

# Pinned inputs of the count metrics.
_COUNT_N = 60
_COUNT_SEED = 12345
_GRID_SIDE = 60


@dataclass(frozen=True)
class BenchCase:
    """One named benchmark producing one or more metric entries."""

    name: str
    fn: Callable[[], dict[str, dict[str, Any]]]
    description: str = ""


def _count(
    value: float,
    unit: str,
    tolerance_pct: float = 0.0,
    details: dict[str, Any] | None = None,
) -> dict[str, Any]:
    entry: dict[str, Any] = {
        "value": float(value),
        "unit": unit,
        "tolerance_pct": tolerance_pct,
    }
    if details:
        entry["details"] = details
    return entry


def _bench_tree(n: int, seed: int = 7):
    from ..graphs.generators import random_tree

    return random_tree(n, seed=seed).graph


def _sequential_stopping() -> dict[str, dict[str, Any]]:
    """Precision-request economics: evidence reuse and realized trials.

    The acceptance workload is pinned (tree:500, ``fair_tree_fast``,
    2000-trial fixed budget).  One fixed request deposits evidence; the following default-precision request
    must satisfy its CI from that evidence alone (``warm_new_trials``
    gates at 0 — any regression in the evidence plane or the stopping
    rule shows up as new trials executed).  A cold seeded sweep then
    records the realized-trials distribution of default-precision
    requests (p50/p95, gated with slack for stopping-boundary wobble).
    """
    import numpy as np

    from ..service.estimator import Estimator
    from ..service.precision import Precision

    graph = _bench_tree(500, seed=_COUNT_SEED)
    fixed_trials = 2000
    with Estimator(n_jobs=1) as service:
        service.estimate(
            graph=graph, algorithm="fair_tree_fast",
            trials=fixed_trials, seed=_COUNT_SEED, timeout=300.0,
        )
        warm = service.estimate(
            graph=graph, algorithm="fair_tree_fast",
            precision=Precision.default(), seed=_COUNT_SEED + 1,
            timeout=300.0,
        )
        warm_new = warm.realized_trials - warm.prior_trials

        sweep_graph = _bench_tree(150, seed=_COUNT_SEED)
        sweep_realized: list[int] = []
        for i in range(5):
            service.cache.clear()  # each sweep request starts cold
            result = service.estimate(
                graph=sweep_graph, algorithm="fair_tree_fast",
                precision=Precision.default(), seed=3000 + i,
                timeout=300.0,
            )
            sweep_realized.append(result.realized_trials)
    p50 = float(np.percentile(sweep_realized, 50))
    p95 = float(np.percentile(sweep_realized, 95))
    details = {
        "n": 500, "fixed_trials": fixed_trials,
        "prior_trials": warm.prior_trials,
        "realized_trials": warm.realized_trials,
        "stopped_early": warm.stopped_early,
    }
    sweep_details = {
        "n": 150, "requests": len(sweep_realized),
        "realized": sweep_realized,
        "precision": Precision.default().to_json(),
    }
    return {
        "sequential.warm_new_trials": _count(
            warm_new, "trials", details=details,
        ),
        "sequential.realized_trials.p50": _count(
            p50, "trials", tolerance_pct=10.0, details=sweep_details,
        ),
        "sequential.realized_trials.p95": _count(
            p95, "trials", tolerance_pct=10.0, details=sweep_details,
        ),
    }


def _remote_telemetry() -> dict[str, dict[str, Any]]:
    """Cross-process telemetry plane: merge completeness.

    A real 2-worker pool runs a seeded workload with the plane attached
    (worker registries + span capture piggybacked on every chunk).  The
    gated counts assert the plane's contract, not the clock: every
    dispatched chunk's telemetry must be merged exactly once
    (``unmerged_chunks`` and ``duplicate_chunks`` both 0) and the merged
    registry must carry per-worker labeled series.  The plane's overhead
    has one definition, the CPU-time gate in
    ``benchmarks/test_engine_speed.py``.
    """
    from ..analysis.montecarlo import TrialPool
    from ..fast.luby import FastLuby
    from ..obs.metrics import MetricsRegistry, parse_label_key
    from ..obs.remote import RemoteTelemetry

    graph = _bench_tree(40)
    trials = 50
    workers = 2
    registry = MetricsRegistry()
    telemetry = RemoteTelemetry(registry)

    with TrialPool(FastLuby(), graph, workers=workers, telemetry=telemetry) as pool:
        pool.run(trials, seed=0)
    # pool.run partitions seeds over workers*4 chunks, dropping empties
    dispatched = min(workers * 4, trials)
    merged = registry.counter("telemetry_chunks_merged_total").value
    duplicates = registry.counter("telemetry_chunks_duplicate_total").value
    chunk_hist = registry.snapshot()["histograms"].get("worker_chunk_seconds", {})
    worker_labels = {
        parse_label_key(key).get("worker", "") for key in chunk_hist
    }
    missing_series = 0 if worker_labels - {""} else 1

    details = {
        "trials": trials, "workers": workers, "n": graph.n,
        "dispatched": dispatched, "merged": merged,
        "worker_series": sorted(worker_labels),
    }
    return {
        "telemetry.unmerged_chunks": _count(
            dispatched - merged, "chunks", details=details,
        ),
        "telemetry.duplicate_chunks": _count(
            duplicates, "chunks", details=details,
        ),
        "telemetry.missing_worker_series": _count(
            missing_series, "series", details=details,
        ),
    }


def _grid_edge_tuples(rows: int, cols: int) -> list[tuple[int, int]]:
    """Nested-loop grid edges — the pre-array construction reference."""
    edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def _graph_build() -> dict[str, dict[str, Any]]:
    """Array-native construction vs the tuple-of-tuples reference path.

    The gated metric is a *hash-mismatch count*: every generator family
    in the pinned sweep must produce bit-identical ``content_hash`` to an
    independently-written tuple-path reference (nested loops feeding
    ``from_edges`` with a Python list), and a shuffled/reversed tuple
    round-trip of a random tree must re-canonicalize to the same hash.
    Any nonzero value means the vectorized canonicalization changed graph
    content.
    """
    import numpy as np

    from ..graphs.generators import (
        complete_graph,
        cycle_graph,
        grid_graph,
        path_graph,
        random_tree,
        star_graph,
        triangulated_grid,
    )
    from ..graphs.graph import StaticGraph

    mismatches = 0
    checked: list[str] = []

    def check(name: str, graph: StaticGraph, reference: StaticGraph) -> None:
        nonlocal mismatches
        checked.append(name)
        if graph.content_hash() != reference.content_hash():
            mismatches += 1

    n = _COUNT_N
    check("path", path_graph(n),
          StaticGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)]))
    check("cycle", cycle_graph(n),
          StaticGraph.from_edges(
              n, [(i, (i + 1) % n) for i in range(n)]))
    check("star", star_graph(n),
          StaticGraph.from_edges(n, [(0, i) for i in range(1, n)]))
    check("complete", complete_graph(12),
          StaticGraph.from_edges(
              12, [(i, j) for i in range(12) for j in range(i + 1, 12)]))
    check("grid", grid_graph(12, 9),
          StaticGraph.from_edges(12 * 9, _grid_edge_tuples(12, 9)))
    tri_ref = _grid_edge_tuples(7, 5) + [
        (r * 5 + c, (r + 1) * 5 + c + 1)
        for r in range(6) for c in range(4)
    ]
    check("triangulated_grid", triangulated_grid(7, 5),
          StaticGraph.from_edges(7 * 5, tri_ref))
    # Canonicalization equivalence: feed the canonical edges back as a
    # shuffled, endpoint-swapped Python tuple list; the slow path must
    # reproduce the same canonical form.
    tree = random_tree(n, seed=_COUNT_SEED).graph
    scrambled = [(int(v), int(u)) for u, v in tree.edges.tolist()]
    np.random.default_rng(_COUNT_SEED).shuffle(scrambled)  # type: ignore[arg-type]
    check("random_tree_scrambled", tree,
          StaticGraph.from_edges(n, scrambled))

    side = _GRID_SIDE
    check(f"grid_{side}x{side}", grid_graph(side, side),
          StaticGraph.from_edges(side * side, _grid_edge_tuples(side, side)))
    return {
        "graph.build.hash_mismatches": _count(
            mismatches, "graphs", details={"checked": checked},
        ),
    }


def _graph_load() -> dict[str, dict[str, Any]]:
    """On-disk formats: round trips through every loader.

    The metric counts round-trip hash mismatches across all three
    loaders (``.reprograph`` with verification, ``.npz``, and a SNAP
    edge-list rendering that includes duplicate reversed rows and a
    self-loop) plus a check that a memmapped load arrives with its CSR
    pre-materialized.
    """
    import tempfile
    from pathlib import Path

    from ..graphs.diskgraph import load_reprograph, save_reprograph
    from ..graphs.generators import grid_graph, random_tree
    from ..graphs.io import load_graph, save_graph
    from ..graphs.snap import load_snap_edgelist

    side = _GRID_SIDE
    graph = grid_graph(side, side)
    mismatches = 0
    checked: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        root = Path(tmp)
        disk = root / "g.reprograph"
        save_reprograph(disk, graph)
        loaded = load_reprograph(disk)
        checked.append("reprograph")
        if load_reprograph(disk, verify=True).content_hash() != graph.content_hash():
            mismatches += 1
        checked.append("reprograph_csr_premat")
        if "_csr" not in loaded.__dict__:
            mismatches += 1

        npz = root / "g.npz"
        save_graph(npz, graph)
        checked.append("npz")
        if load_graph(npz).content_hash() != graph.content_hash():
            mismatches += 1

        # SNAP text round-trip on a pinned small graph: both directions
        # of every edge, a comment, and a self-loop to exercise parsing.
        small = random_tree(_COUNT_N, seed=_COUNT_SEED).graph
        lines = ["# bench snap roundtrip"]
        for u, v in small.edges.tolist():
            lines.append(f"{u}\t{v}")
            lines.append(f"{v} {u}")
        lines.append("3 3")
        text = root / "g.txt"
        text.write_text("\n".join(lines) + "\n", encoding="utf-8")
        snap = load_snap_edgelist(text)
        checked.append("snap")
        if (
            snap.graph.content_hash() != small.content_hash()
            or snap.self_loops_dropped != 1
        ):
            mismatches += 1

    return {
        "graph.load.roundtrip_mismatches": _count(
            mismatches, "graphs", details={"checked": checked, "side": side},
        ),
    }


def _faithful_counts() -> dict[str, dict[str, Any]]:
    """Rounds/messages of the faithful engines on a pinned seeded run."""
    from ..algorithms.fair_tree import FairTree
    from ..algorithms.luby import LubyMIS
    from ..runtime.rng import generator_from

    graph = _bench_tree(_COUNT_N, seed=_COUNT_SEED)
    out: dict[str, dict[str, Any]] = {}
    for algorithm in (LubyMIS(), FairTree()):
        result = algorithm.run(graph, generator_from(_COUNT_SEED))
        metrics = result.metrics
        assert metrics is not None
        out[f"faithful.{algorithm.name}.rounds"] = _count(
            metrics.rounds, "rounds", details={"n": _COUNT_N, "seed": _COUNT_SEED}
        )
        out[f"faithful.{algorithm.name}.messages"] = _count(
            metrics.total_messages, "messages",
            details={"n": _COUNT_N, "seed": _COUNT_SEED},
        )
    return out


def _fast_counts() -> dict[str, dict[str, Any]]:
    """Iteration counts of the fast engines on a pinned seeded run."""
    from ..fast.luby import FastLuby
    from ..runtime.rng import generator_from

    graph = _bench_tree(_COUNT_N, seed=_COUNT_SEED)
    out: dict[str, dict[str, Any]] = {}
    for variant in ("priority", "degree"):
        algorithm = FastLuby(variant=variant)
        result = algorithm.run(graph, generator_from(_COUNT_SEED))
        out[f"fast.{algorithm.name}.iterations"] = _count(
            result.info["iterations"], "iterations",
            details={"n": _COUNT_N, "seed": _COUNT_SEED},
        )
    return out


def _frontend_load() -> dict[str, dict[str, Any]]:
    """Closed-loop load through the sharded TCP front end.

    The metrics are the structural invariants that must hold on any
    machine: warm requests route to the same shard and cost zero new
    trials, nominal load sheds nothing, and overload sheds
    *structurally* (at least one shed, every non-success carrying a
    machine-readable error code).  A warm-latency calibration sets the
    nominal (half-capacity) and overload rates, so both are relative to
    the host.
    """
    import asyncio
    import contextlib

    from ..frontend import Frontend, FrontendConfig, run_loadgen, run_tcp_server
    from ..obs.metrics import MetricsRegistry

    nominal_spec = f"tree:120:{_COUNT_SEED}"
    warm_specs = [f"tree:{80 + i}:1" for i in range(6)]
    overload_specs = [f"tree:{130 + i}:3" for i in range(10)]
    evidence_spec = f"tree:500:{_COUNT_SEED}"

    def v1(spec: str, **kw: Any) -> dict[str, Any]:
        return {
            "graph": spec, "algorithm": "luby_fast", "trials": 40,
            "seed": 0, **kw,
        }

    async def start(shards: int, queue_limit: int = 128):
        cfg = FrontendConfig(
            shards=shards, shard_jobs=1, include_counts=False,
            queue_limit=queue_limit, inherit_shard_stderr=False,
        )
        fe = Frontend(cfg, registry=MetricsRegistry())
        ready = asyncio.Event()
        task = asyncio.create_task(
            run_tcp_server(fe, "127.0.0.1", 0, ready=ready)
        )
        await asyncio.wait_for(ready.wait(), timeout=180)
        return fe, task

    async def stop(task) -> None:
        task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await task

    async def rpc(port: int, obj: dict[str, Any]) -> dict[str, Any]:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write((json.dumps(obj) + "\n").encode())
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=300)
            return json.loads(line)
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def bench() -> dict[str, dict[str, Any]]:
        (fe1, t1), (fe4, t4) = await asyncio.gather(start(1), start(4))
        port1, port4 = fe1.bound_port, fe4.bound_port
        try:
            # -- warm path on 4 shards: same graph → same shard, cached.
            warm_errors = warm_route_changes = warm_trials_run = 0
            for i, spec in enumerate(warm_specs):
                first = await rpc(port4, v1(spec, id=f"w{i}a"))
                repeat = await rpc(port4, v1(spec, id=f"w{i}b"))
                if "error" in first or "error" in repeat:
                    warm_errors += 1
                    continue
                if repeat.get("shard") != first.get("shard"):
                    warm_route_changes += 1
                if not repeat.get("cached"):
                    warm_trials_run += int(repeat.get("trials_run", 1)) or 1

            # -- sharded evidence economics (mirrors sequential_stopping
            #    at the wire): a fixed deposit, then a default-precision
            #    request with a fresh seed must cost zero new trials.
            deposit = await rpc(port4, {
                "graph": evidence_spec, "algorithm": "fair_tree_fast",
                "trials": 2000, "seed": _COUNT_SEED, "id": "ev-cold",
            })
            warm_v2 = await rpc(port4, {
                "v": 2, "graph": evidence_spec, "algorithm": "fair_tree_fast",
                "seed": _COUNT_SEED + 1, "id": "ev-warm",
            })
            if "error" in deposit or "error" in warm_v2:
                warm_errors += 1
                warm_new_trials = -1
            else:
                if warm_v2.get("shard") != deposit.get("shard"):
                    warm_route_changes += 1
                warm_new_trials = int(warm_v2["realized_trials"]) - int(
                    warm_v2["prior_trials"]
                )

            # -- calibrate: warm mean latency of the nominal request.
            lat: list[float] = []
            for i in range(6):
                t0 = time.perf_counter()
                probe = await rpc(port1, v1(nominal_spec, id=f"cal{i}"))
                lat.append(time.perf_counter() - t0)
                if "error" in probe:
                    warm_errors += 1
            mean_lat = sum(lat[1:]) / len(lat[1:])  # drop the cold first

            # -- nominal: half the measured capacity must shed nothing.
            nominal_rate = max(2.0, 0.5 / mean_lat)
            nominal = await run_loadgen(
                "127.0.0.1", port1, [v1(nominal_spec)] * 30,
                rate=nominal_rate, timeout_s=300,
            )

            # -- overload: shrink the shard queue and slam it 4x over
            #    capacity with uncached graphs; shedding must happen and
            #    every non-success must carry a structured code.
            fe1.config.queue_limit = 2
            for shard in fe1.shards:
                shard.queue_limit = 2
            overload_rate = max(50.0, 4.0 / mean_lat)
            overload = await run_loadgen(
                "127.0.0.1", port1,
                [v1(overload_specs[i % len(overload_specs)], seed=i)
                 for i in range(30)],
                rate=overload_rate, timeout_s=300,
            )
        finally:
            await asyncio.gather(stop(t1), stop(t4))

        details = {
            "cpu_count": os.cpu_count(),
            "calibrated_latency_ms": round(mean_lat * 1e3, 3),
            "nominal_rate_rps": round(nominal_rate, 2),
            "overload_rate_rps": round(overload_rate, 2),
            "nominal": nominal.to_json(),
            "overload": overload.to_json(),
        }
        return {
            "frontend.warm_errors": _count(
                warm_errors, "requests", details=details),
            "frontend.warm_route_changes": _count(
                warm_route_changes, "requests", details=details),
            "frontend.warm_trials_run": _count(
                warm_trials_run, "trials", details=details),
            "frontend.warm_new_trials": _count(
                warm_new_trials, "trials", details=details),
            "frontend.nominal_shed": _count(
                nominal.shed + nominal.rate_limited, "requests",
                details=details),
            "frontend.overload_shed_missing": _count(
                0 if overload.shed > 0 else 1, "flag", details=details),
            "frontend.overload_unstructured_errors": _count(
                overload.errors, "requests", details=details),
        }

    return asyncio.run(bench())


def build_cases(only: str | None = None) -> list[BenchCase]:
    """The suite, optionally filtered by *only* (a name substring)."""
    cases = [
        BenchCase("sequential_stopping", _sequential_stopping,
                  "precision-request evidence reuse and realized trials"),
        BenchCase("remote_telemetry", _remote_telemetry,
                  "cross-process telemetry merge completeness"),
        BenchCase("graph_build", _graph_build,
                  "array-native construction hash equivalence"),
        BenchCase("graph_load", _graph_load,
                  "on-disk round-trip equivalence"),
        BenchCase("faithful_counts", _faithful_counts,
                  "faithful-engine rounds/messages"),
        BenchCase("fast_counts", _fast_counts,
                  "fast-engine iteration counts"),
        BenchCase("frontend", _frontend_load,
                  "sharded front end: warm routing, admission, overload"),
    ]
    if only:
        needle = only.lower()
        cases = [c for c in cases if needle in c.name.lower()]
    return cases


def run_suite(
    cases: Iterable[BenchCase] | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, dict[str, Any]]:
    """Execute the suite; returns ``{metric_name: entry}`` for the artifact."""
    metrics: dict[str, dict[str, Any]] = {}
    for case in cases if cases is not None else build_cases():
        if progress is not None:
            progress(f"bench: {case.name} ({case.description})")
        started = time.perf_counter()
        produced = case.fn()
        elapsed = time.perf_counter() - started
        for name, entry in produced.items():
            if name in metrics:
                raise ValueError(f"duplicate bench metric name {name!r}")
            metrics[name] = entry
        if progress is not None:
            progress(f"bench: {case.name} done in {elapsed:.2f}s "
                     f"({len(produced)} metrics)")
    return metrics
