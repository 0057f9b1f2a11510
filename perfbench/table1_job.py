"""The ``table1`` workload's program side: the paper's Table I as a batch job.

The paper's evaluation (Section IX, Table I) estimates every node's join
frequency for Luby and FAIRTREE on six trees.  Here that runs through
the service's exact mode, which is bit-identical to ``run_trials``:
one caller submits all 12 (tree, algorithm) cells at once to an
in-process ``Estimator(n_jobs=2, clamp_to_host=False)`` and waits for
the 12 results, then submits the next batch with fresh seeds (so the
result cache never answers), until ``--seconds`` have passed.

``run.py`` starts this file in a session of its own, so the job and its
pool workers are exactly the processes of that session.  The job prints
one JSON line with its raw measurements; ``run.py`` turns them into
metrics.  With ``--setup-only`` it sets up, shuts down and reports only
the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import procfs  # noqa: E402

ALGORITHMS = ("luby_fast", "fair_tree_fast")
CITY_N = 2500
#: Trials per cell: three 64-trial scheduler chunks.  A batch takes
#: ~1.7 s on a 2-core host, so a 20 s run holds ~140 cell latencies.
TRIALS_PER_CELL = 192
WORKERS = 2
#: Theorem 6 bounds FAIRTREE's inequality factor by 4 on trees.  The
#: Wilson lower bound of each FAIRTREE cell's factor, over all the trials
#: the run made for that cell, must not exceed it.  (One batch's 192
#: trials are too few: the maximum over thousands of nodes' lower bounds
#: then sits near 4 by chance alone.)
FAIRTREE_BOUND = 4.0
RESULT_TIMEOUT_S = 120.0


def _wait(handle):
    try:
        result = handle.result(RESULT_TIMEOUT_S)
    except Exception as exc:  # noqa: BLE001 - a failed request, reported
        result = exc
    return result, time.monotonic_ns()


def _check(result, graph) -> str | None:
    """Why a cell's result is wrong, or None."""
    if isinstance(result, Exception):
        return f"error: {type(result).__name__}: {result}"
    est = result.estimate
    if result.trials_run != TRIALS_PER_CELL or est.trials != TRIALS_PER_CELL:
        return f"trials_run {result.trials_run} / trials {est.trials}"
    if len(est.counts) != graph.n:
        return f"counts length {len(est.counts)} != n {graph.n}"
    return None


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace-dir", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.monotonic()
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.api import EstimateRequest, Estimator, make, run_trials
    from repro.experiments.datasets import table1_trees

    if args.trace_dir:
        import tracer

        tracer.install(args.trace_dir)
    rng = random.Random(args.seed)
    trees = table1_trees(city_n=CITY_N)
    service = Estimator(n_jobs=WORKERS, clamp_to_host=False)
    setup_s = time.monotonic() - t0
    if args.setup_only:
        service.shutdown()
        print(json.dumps({"setup_s": setup_s}))
        return

    cells = [(tree.graph, alg) for tree in trees for alg in ALGORITHMS]
    waiter = ThreadPoolExecutor(max_workers=len(cells))
    sid = os.getsid(0)
    records = []  # [rid, submit_ns, done_ns, problem or None, trials_run]
    batches = []  # (start_ns, end_ns)
    late_ns = []
    designated = args.seed % len(cells)
    pooled = [None] * len(cells)
    last_ok = [None] * len(cells)
    exact_cell = None
    trials = 0
    cpu0 = procfs.session_cpu_s(sid)
    start = time.monotonic_ns()
    prev_end = start
    while time.monotonic_ns() - start < args.seconds * 1e9:
        batch = len(batches)
        seeds = [rng.randrange(2**31) for _ in cells]
        batch_start = time.monotonic_ns()
        late_ns.append(batch_start - prev_end)
        submitted = []
        for i, ((graph, alg), seed) in enumerate(zip(cells, seeds)):
            request = EstimateRequest(
                algorithm=alg, trials=TRIALS_PER_CELL, graph=graph,
                seed=seed, mode="exact", id=f"b{batch}c{i}",
            )
            t_sub = time.monotonic_ns()
            submitted.append((request, t_sub, waiter.submit(_wait, service.submit(request))))
        for i, ((request, t_sub, future), (graph, alg)) in enumerate(zip(submitted, cells)):
            result, t_done = future.result()
            problem = _check(result, graph)
            trials_run = 0 if isinstance(result, Exception) else result.trials_run
            records.append([request.id, t_sub, t_done, problem, trials_run])
            if problem is None:
                trials += result.estimate.trials
                pooled[i] = pooled[i].merge(result.estimate) if pooled[i] else result.estimate
                last_ok[i] = len(records) - 1
                if batch == 0 and i == designated:
                    exact_cell = (graph, alg, request.seed, result.estimate.counts)
        prev_end = max(r[2] for r in records[-len(cells):])
        batches.append((batch_start, prev_end))
    cpu_s = procfs.session_cpu_s(sid) - cpu0
    waiter.shutdown()

    # Outside the timed window: the designated cell must equal run_trials
    # (if it already failed a check, it is counted as failed once).
    if exact_cell is not None:
        graph, alg, seed, counts = exact_cell
        reference = run_trials(make(alg), graph, TRIALS_PER_CELL, seed=seed)
        if not (reference.counts == counts).all():
            records[designated][3] = "counts differ from run_trials"
    for (graph, alg), est, last in zip(cells, pooled, last_ok):
        if alg == "fair_tree_fast" and est is not None:
            lower = est.inequality_bounds(1.96)[0]
            if lower > FAIRTREE_BOUND:
                records[last][3] = f"FAIRTREE inequality lower bound {lower:.3f} > {FAIRTREE_BOUND}"
    if args.trace_dir:
        for rid, t_sub, t_done, _, _ in records:
            tracer.record("client.request", t_sub, t_done, rid=rid)
    service.shutdown()
    print(json.dumps({
        "setup_s": setup_s,
        "cells": [
            {"rid": rid, "submit_ns": s, "done_ns": d, "problem": p, "trials_run": t}
            for rid, s, d, p, t in records
        ],
        "batches": batches,
        "late_ns": late_ns,
        "trials": trials,
        "cpu_s": cpu_s,
        "workers": WORKERS,
    }))


if __name__ == "__main__":
    main()
