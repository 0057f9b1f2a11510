"""Engine micro-benchmarks: per-run cost of every fast algorithm.

These are conventional pytest-benchmark timings (many rounds), tracking
the throughput that makes the 10,000-trial evaluation feasible, plus a
faithful-vs-fast cost comparison documenting why both layers exist.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.luby import LubyMIS
from repro.fast.blocks import FastColorMIS, FastFairBipart
from repro.fast.fair_rooted import FastFairRooted
from repro.fast.fair_tree import FastFairTree
from repro.fast.luby import FastLuby
from repro.experiments.datasets import binary_tree
from repro.graphs.generators import grid_graph, random_tree


@pytest.fixture(scope="module")
def paper_tree():
    return binary_tree().graph


def test_speed_fast_luby_binary_tree(benchmark, paper_tree):
    rng = np.random.default_rng(0)
    benchmark(lambda: FastLuby().run(paper_tree, rng))


def test_speed_fast_fair_tree_binary_tree(benchmark, paper_tree):
    rng = np.random.default_rng(0)
    benchmark(lambda: FastFairTree().run(paper_tree, rng))


def test_speed_fast_fair_rooted_binary_tree(benchmark, paper_tree):
    rng = np.random.default_rng(0)
    alg = FastFairRooted()
    benchmark(lambda: alg.run(paper_tree, rng))


def test_speed_fast_fair_bipart_medium_tree(benchmark):
    g = random_tree(500, seed=1).graph
    rng = np.random.default_rng(0)
    benchmark(lambda: FastFairBipart().run(g, rng))


def test_speed_fast_color_mis_grid(benchmark):
    g = grid_graph(20, 20)
    rng = np.random.default_rng(0)
    benchmark(lambda: FastColorMIS().run(g, rng))


def test_speed_faithful_luby_small_tree(benchmark):
    """The faithful layer on a small tree — orders slower per node, which
    is exactly why the fast layer exists (DESIGN.md §4)."""
    g = random_tree(100, seed=2).graph
    rng = np.random.default_rng(0)
    benchmark(lambda: LubyMIS().run(g, rng))


# --------------------------------------------------------------------------- #
# Estimation service: warm pool vs cold run_trials (ISSUE acceptance gate)
# --------------------------------------------------------------------------- #

def test_warm_estimator_vs_cold_run_trials():
    """Warm-pool Estimator throughput ≥ 2× cold ``run_trials(n_jobs=4)``.

    Cold path pays worker spin-up, graph export, and per-trial Python
    dispatch on every call; the warm service keeps one worker set
    resident and routes fast engines through the vectorized
    disjoint-union kernel.
    Measured over several distinct-seed requests on the paper's
    ``tree:500`` workload with a warm-up request excluded.
    """
    import time

    from repro.analysis import run_trials
    from repro.service import Estimator

    graph = random_tree(500, seed=1).graph
    trials = 2000
    requests = 3

    alg = FastLuby()
    t0 = time.perf_counter()
    for seed in range(100, 100 + requests):
        run_trials(alg, graph, trials, seed=seed, n_jobs=4)
    cold_s = time.perf_counter() - t0

    with Estimator(n_jobs=4, cache_size=0) as svc:
        svc.estimate(graph=graph, algorithm="luby_fast", trials=trials, seed=99)
        t0 = time.perf_counter()
        for seed in range(100, 100 + requests):
            svc.estimate(
                graph=graph, algorithm="luby_fast", trials=trials, seed=seed
            )
        warm_s = time.perf_counter() - t0

    total = requests * trials
    cold_tput = total / cold_s
    warm_tput = total / warm_s
    print(
        f"\ncold run_trials: {cold_tput:,.0f} trials/s; "
        f"warm Estimator: {warm_tput:,.0f} trials/s "
        f"({warm_tput / cold_tput:.1f}x)"
    )
    assert warm_tput >= 2 * cold_tput, (
        f"warm service should be >= 2x cold run_trials, got "
        f"{warm_tput / cold_tput:.2f}x ({warm_s:.3f}s vs {cold_s:.3f}s)"
    )


def test_observability_overhead_under_five_percent():
    """Instrumented warm trial path within 5% of the uninstrumented one.

    The observability hooks on the hot path (per-trial round capture,
    batched histogram flush, registry lookups hoisted per chunk) must
    stay cheap: the same ``chunk_counts`` workload is timed with hooks
    enabled (default) and globally disabled (``set_enabled(False)``).
    Wall-clock on shared runners drifts by more than the effect being
    measured (single ~20 ms chunks vary several percent run to run).
    Each comparison therefore pairs best-of-3 timings back to back
    (alternating which side goes first, so throttling phases hit both
    sides), and the statistic is the **median of the paired ratios** —
    interference inflates individual samples but a real instrumentation
    regression shifts every pair, and the median survives outliers.
    """
    import statistics
    import time

    from repro.analysis.montecarlo import chunk_counts
    from repro.obs.metrics import set_enabled
    from repro.runtime.rng import spawn_trial_seeds

    graph = random_tree(300, seed=3).graph
    alg = FastLuby()
    seeds = spawn_trial_seeds(0, 200)

    def best_of(flag: bool, k: int = 3) -> float:
        set_enabled(flag)
        times = []
        for _ in range(k):
            t0 = time.perf_counter()
            chunk_counts(alg, graph, seeds)
            times.append(time.perf_counter() - t0)
        return min(times)

    chunk_counts(alg, graph, seeds)  # warm caches/allocators
    ratios: list[float] = []
    try:
        for i in range(7):
            if i % 2:
                on = best_of(True)
                off = best_of(False)
            else:
                off = best_of(False)
                on = best_of(True)
            ratios.append(on / off)
    finally:
        set_enabled(True)

    ratio = statistics.median(ratios)
    print(f"\nobservability overhead (median paired ratio): {(ratio - 1) * 100:+.1f}%")
    assert ratio <= 1.05, (
        f"observability overhead {(ratio - 1) * 100:.1f}% exceeds 5% "
        f"(paired ratios: {[round(r, 3) for r in sorted(ratios)]})"
    )


def test_telemetry_plane_overhead_under_five_percent():
    """The full cross-process plane stays within 5% of a bare chunk.

    ``run_chunk_with_telemetry`` is everything a worker pays per chunk:
    trace re-entry, a fresh delta registry, span capture, the phase
    profiler, the chunk-summary histograms, and the final snapshot.
    The per-chunk part is fixed (~0.1 ms); the per-trial part is the
    profiler's sweep hooks, so the gate runs at representative graph
    scale (n=1000 — the paper's evaluation trees) where a trial does
    enough kernel work to amortize them.

    Methodology differs from the wall-clock bound above because the
    effect being certified is smaller than shared-runner wall-clock
    noise: samples use **CPU time** (immune to scheduler preemption),
    the cyclic collector is paused so its pauses don't land on one
    side, each window alternates the two sides sample-by-sample and
    compares their medians, and the gate takes the **minimum ratio
    over five windows** — throttling inflates individual windows, but
    a real regression in the plane shifts every window including the
    cleanest.
    """
    import gc
    import statistics
    import time

    from repro.analysis.montecarlo import chunk_counts
    from repro.obs.remote import (
        TraceContext,
        new_chunk_id,
        run_chunk_with_telemetry,
    )
    from repro.runtime.rng import spawn_trial_seeds

    graph = random_tree(1000, seed=3).graph
    alg = FastLuby()
    seeds = spawn_trial_seeds(0, 60)
    ctx = TraceContext()

    def bare() -> None:
        chunk_counts(alg, graph, seeds)

    def instrumented() -> None:
        run_chunk_with_telemetry(
            lambda: chunk_counts(alg, graph, seeds),
            ctx,
            new_chunk_id(),
            algorithm=alg.name,
            trials=len(seeds),
        )

    def window(samples: int = 10) -> float:
        on: list[float] = []
        off: list[float] = []
        for _ in range(samples):
            t0 = time.process_time()
            bare()
            off.append(time.process_time() - t0)
            t0 = time.process_time()
            instrumented()
            on.append(time.process_time() - t0)
        return statistics.median(on) / statistics.median(off)

    instrumented()  # warm caches/allocators on both paths
    gc.collect()
    gc.disable()
    try:
        windows = [window() for _ in range(5)]
    finally:
        gc.enable()
    ratio = min(windows)
    print(
        f"\ntelemetry plane overhead (best window): {(ratio - 1) * 100:+.1f}% "
        f"(windows: {[round(w, 3) for w in windows]})"
    )
    assert ratio <= 1.05, (
        f"telemetry plane overhead {(ratio - 1) * 100:.1f}% exceeds 5% "
        f"in every window ({[round(w, 3) for w in windows]})"
    )


def test_estimator_cache_serves_repeat_requests():
    """A repeated identical request runs 0 new trials and counts a hit."""
    from repro.service import Estimator

    graph = random_tree(500, seed=1).graph
    with Estimator(n_jobs=4) as svc:
        first = svc.estimate(
            graph=graph, algorithm="luby_fast", trials=2000, seed=0
        )
        before = svc.counters.snapshot()
        again = svc.estimate(
            graph=graph, algorithm="luby_fast", trials=2000, seed=0
        )
        after = svc.counters.snapshot()
    assert not first.cached and again.cached
    assert again.trials_run == 0
    assert after["cache_hits"] == before["cache_hits"] + 1
    assert after["trials_executed"] == before["trials_executed"]
    assert np.array_equal(again.estimate.counts, first.estimate.counts)
