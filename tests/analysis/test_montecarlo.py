"""Tests for the Monte-Carlo trial runner (serial and parallel)."""

import signal
import sys
import time

import numpy as np
import pytest

from repro.analysis.montecarlo import estimate_join_probabilities, run_trials
from repro.core.result import InvalidMISError, MISResult
from repro.fast.fair_tree import FastFairTree
from repro.fast.luby import FastLuby
from repro.graphs.generators import path_graph, random_tree


class EmptySetMIS:
    """Outputs the empty set (never maximal); checks itself like the real
    algorithms do when built with ``validate=True``.  Module level so a
    spawn-started worker can unpickle it."""

    name = "empty_set"

    def __init__(self, validate: bool = False) -> None:
        self.validate = validate

    def run(self, graph, rng):
        result = MISResult(np.zeros(graph.n, dtype=bool))
        if self.validate:
            result.validate(graph)
        return result


class TestSerial:
    def test_counts_bounded_by_trials(self):
        est = run_trials(FastLuby(), path_graph(6), trials=50, seed=0)
        assert est.trials == 50
        assert est.counts.max() <= 50

    def test_deterministic_given_seed(self):
        g = random_tree(30, seed=1).graph
        a = run_trials(FastLuby(), g, trials=40, seed=7)
        b = run_trials(FastLuby(), g, trials=40, seed=7)
        assert np.array_equal(a.counts, b.counts)

    def test_different_seeds_differ(self):
        g = random_tree(30, seed=1).graph
        a = run_trials(FastLuby(), g, trials=40, seed=7)
        b = run_trials(FastLuby(), g, trials=40, seed=8)
        assert not np.array_equal(a.counts, b.counts)

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            run_trials(FastLuby(), path_graph(3), trials=0)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_self_validating_algorithm_raises(self, n_jobs):
        # Inline or from a worker process, an invalid run must surface.
        with pytest.raises(InvalidMISError):
            run_trials(
                EmptySetMIS(validate=True), path_graph(5), 16, seed=0,
                n_jobs=n_jobs,
            )

    def test_probabilities_helper(self):
        probs = estimate_join_probabilities(
            FastLuby(), path_graph(5), trials=30, seed=0
        )
        assert probs.shape == (5,)
        assert np.all((0 <= probs) & (probs <= 1))


class TestParallel:
    def test_parallel_matches_serial_totals(self):
        """Parallel and serial runs use the same spawned seed sequences,
        so the pooled counts must be identical."""
        g = random_tree(25, seed=2).graph
        serial = run_trials(FastLuby(), g, trials=48, seed=3, n_jobs=1)
        parallel = run_trials(FastLuby(), g, trials=48, seed=3, n_jobs=2)
        assert np.array_equal(serial.counts, parallel.counts)

    def test_parallel_fair_tree(self):
        g = random_tree(25, seed=2).graph
        est = run_trials(FastFairTree(), g, trials=32, seed=0, n_jobs=2)
        assert est.trials == 32

    def test_auto_job_count(self):
        g = path_graph(8)
        est = run_trials(FastLuby(), g, trials=16, seed=0, n_jobs=0)
        assert est.trials == 16


class TestNormalizeJobs:
    def test_one_is_inline(self):
        from repro.analysis.montecarlo import normalize_jobs

        assert normalize_jobs(1) == 1

    def test_zero_and_negative_mean_all_cores(self):
        import os

        from repro.analysis.montecarlo import normalize_jobs

        cores = os.cpu_count() or 1
        assert normalize_jobs(0) == cores
        assert normalize_jobs(-1) == cores
        assert normalize_jobs(-7) == cores

    def test_positive_passthrough(self):
        from repro.analysis.montecarlo import normalize_jobs

        assert normalize_jobs(3) == 3

    def test_limit_caps_result(self):
        from repro.analysis.montecarlo import normalize_jobs

        assert normalize_jobs(8, limit=2) == 2
        assert normalize_jobs(0, limit=1) == 1


class TestTrialPool:
    def test_inline_pool_matches_run_trials(self):
        from repro.analysis.montecarlo import TrialPool

        g = random_tree(25, seed=2).graph
        serial = run_trials(FastLuby(), g, trials=48, seed=3)
        with TrialPool(FastLuby(), g, workers=1) as pool:
            est = pool.run(48, seed=3)
        assert np.array_equal(est.counts, serial.counts)

    def test_process_pool_matches_run_trials(self):
        from repro.analysis.montecarlo import TrialPool

        g = random_tree(25, seed=2).graph
        serial = run_trials(FastLuby(), g, trials=48, seed=3)
        with TrialPool(FastLuby(), g, workers=2) as pool:
            est = pool.run(48, seed=3)
            assert pool.processes  # real subprocesses exist while open
        assert np.array_equal(est.counts, serial.counts)

    def test_pool_reuse_across_runs(self):
        from repro.analysis.montecarlo import TrialPool

        g = random_tree(25, seed=2).graph
        with TrialPool(FastLuby(), g, workers=1) as pool:
            a = pool.run(16, seed=0)
            b = pool.run(16, seed=0)
            c = pool.run(16, seed=1)
        assert np.array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)

    def test_inline_pool_has_no_processes(self):
        from repro.analysis.montecarlo import TrialPool

        g = path_graph(6)
        with TrialPool(FastLuby(), g, workers=1) as pool:
            assert pool.processes == []

    def test_close_joins_workers(self):
        from repro.analysis.montecarlo import TrialPool

        g = path_graph(6)
        pool = TrialPool(FastLuby(), g, workers=2)
        procs = pool.processes
        pool.run(16, seed=0)
        pool.close(wait=True)
        assert not any(p.is_alive() for p in procs)


def _ignored_signals(pid):
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("SigIgn:"):
                return int(line.split()[1], 16)
    return 0


class TestWorkerSet:
    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc/<pid>/status"
    )
    def test_workers_ignore_sigint(self):
        # A terminal Ctrl-C signals the whole process group; the parent
        # alone must handle it, or its shutdown waits on the workers.
        from repro.analysis.montecarlo import WorkerSet

        workers = WorkerSet(2)
        try:
            pending = {p.pid for p in workers.processes}
            assert len(pending) == 2
            bit = 1 << (signal.SIGINT - 1)
            # spawned workers run the initializer a moment after the set
            # starts, so poll each one up to a deadline
            deadline = time.monotonic() + 10.0
            while pending and time.monotonic() < deadline:
                pending = {p for p in pending if not _ignored_signals(p) & bit}
                time.sleep(0.05)
            assert not pending, f"workers still take SIGINT: {pending}"
        finally:
            workers.close()
