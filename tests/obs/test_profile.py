"""Unit + integration tests for the engine phase profiler."""

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    PhaseProfiler,
    current_profiler,
    phase,
    use_profiler,
)


class TestBinding:
    def test_unbound_by_default(self):
        assert current_profiler() is None

    def test_phase_is_noop_when_unbound(self):
        with phase("anything"):
            pass  # must not raise and must record nowhere

    def test_use_profiler_binds_and_restores(self):
        with use_profiler() as prof:
            assert current_profiler() is prof
        assert current_profiler() is None

    def test_explicit_profiler_accepted(self):
        mine = PhaseProfiler()
        with use_profiler(mine) as prof:
            assert prof is mine

    def test_nesting_restores_outer(self):
        with use_profiler() as outer:
            with use_profiler() as inner:
                assert current_profiler() is inner
            assert current_profiler() is outer


class TestRecording:
    def test_phase_aggregates_calls(self):
        with use_profiler() as prof:
            for _ in range(3):
                with phase("work"):
                    pass
        report = prof.report()
        assert report["phases"]["work"]["calls"] == 3
        assert report["phases"]["work"]["total_s"] >= 0.0
        assert report["phases"]["work"]["mean_ms"] >= 0.0

    def test_record_round_tracks_max(self):
        prof = PhaseProfiler()
        prof.record_round("r", 0.010)
        prof.record_round("r", 0.030)
        rounds = prof.report()["rounds"]["r"]
        assert rounds["rounds"] == 2
        assert rounds["max_ms"] == pytest.approx(30.0)
        assert rounds["mean_ms"] == pytest.approx(20.0)

    def test_counts(self):
        prof = PhaseProfiler()
        prof.count("k")
        prof.count("k", 4)
        assert prof.report()["counts"]["k"] == 5

    def test_reset(self):
        prof = PhaseProfiler()
        prof.add_phase("p", 0.01)
        prof.reset()
        assert prof.report() == {"phases": {}, "rounds": {}, "counts": {}}

    def test_exception_still_recorded(self):
        with use_profiler() as prof:
            with pytest.raises(RuntimeError):
                with phase("boom"):
                    raise RuntimeError("boom")
        assert prof.report()["phases"]["boom"]["calls"] == 1

    def test_flush_to_registry(self):
        reg = MetricsRegistry()
        prof = PhaseProfiler()
        prof.add_phase("stage1", 0.002)
        prof.record_round("round", 0.001)
        prof.flush_to_registry(reg)
        snap = reg.snapshot()
        assert 'phase="stage1"' in snap["histograms"]["engine_phase_seconds"]
        assert 'phase="round"' in snap["histograms"]["engine_round_seconds"]

    def test_emit_spans_mode_records(self):
        with use_profiler(PhaseProfiler(emit_spans=True)) as prof:
            with phase("spanned"):
                pass
        assert prof.report()["phases"]["spanned"]["calls"] == 1


class TestEngineInstrumentation:
    """The fast engines and the faithful runtime feed a bound profiler."""

    def _tree(self, n=30, seed=3):
        from repro.graphs.generators import random_tree

        return random_tree(n, seed=seed).graph

    def test_fast_fair_tree_phases(self):
        from repro.fast.fair_tree import FastFairTree

        with use_profiler() as prof:
            FastFairTree().run(self._tree(), np.random.default_rng(0))
        phases = prof.report()["phases"]
        for name in (
            "fair_tree.stage1_cut",
            "fair_tree.stage2_resolve",
            "fair_tree.stage3_maximalize",
            "fair_tree.stage4_fallback",
            "cfb.forest",
        ):
            assert name in phases, name

    def test_fast_luby_rounds_match_iterations(self):
        from repro.fast.luby import FastLuby

        with use_profiler() as prof:
            result = FastLuby().run(self._tree(), np.random.default_rng(1))
        rounds = prof.report()["rounds"]["luby.sweep"]
        assert rounds["rounds"] == result.info["iterations"]

    def test_batched_phases(self):
        from repro.fast.batched import batched_trials
        from repro.fast.luby import FastLuby

        with use_profiler() as prof:
            batched_trials(FastLuby(), self._tree(), 8, seed=0, batch=4)
        phases = prof.report()["phases"]
        assert phases["batched.union"]["calls"] == 2
        assert phases["batched.sweep"]["calls"] == 2
        assert phases["batched.fold"]["calls"] == 2

    def test_faithful_network_rounds(self):
        from repro.algorithms.luby import LubyMIS

        with use_profiler() as prof:
            result = LubyMIS().run(self._tree(), np.random.default_rng(2))
        report = prof.report()
        assert report["phases"]["network.run"]["calls"] == 1
        assert report["rounds"]["network.round"]["rounds"] == (
            result.metrics.rounds
        )

    def test_staged_stage_entries_counted(self):
        from repro.algorithms.fair_tree import FairTree

        with use_profiler() as prof:
            FairTree().run(self._tree(), np.random.default_rng(4))
        counts = prof.report()["counts"]
        assert any(k.startswith("staged.stage") for k in counts)

    def test_no_recording_without_binding(self):
        from repro.fast.fair_tree import FastFairTree

        probe = PhaseProfiler()
        FastFairTree().run(self._tree(), np.random.default_rng(0))
        assert probe.report() == {"phases": {}, "rounds": {}, "counts": {}}
        assert current_profiler() is None
