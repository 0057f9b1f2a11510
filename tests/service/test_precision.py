"""The v2 precision surface: targets, stopping, evidence reuse, caps.

Statistical assertions run on ``path:2`` with ``luby_fast``: a 2-path's
MIS is exactly one endpoint, so every node's true join frequency is 0.5
— the worst case for a Wilson interval and an exact ground truth to
check coverage against.
"""

import json
import warnings

import numpy as np
import pytest

from repro.cli import _service_loop
from repro.service import (
    EstimateRequest,
    Estimator,
    Precision,
    StoppingRule,
)
from repro.service.precision import DEFAULT_NODE_CI


class TestPrecisionValidation:
    def test_requires_at_least_one_target(self):
        with pytest.raises(ValueError):
            Precision()

    def test_default_targets_node_ci(self):
        p = Precision.default()
        assert p.node_ci == DEFAULT_NODE_CI
        assert p.inequality_ci is None

    @pytest.mark.parametrize("bad", [0.0, -0.01])
    def test_rejects_nonpositive_targets(self, bad):
        with pytest.raises(ValueError):
            Precision(node_ci=bad)
        with pytest.raises(ValueError):
            Precision(inequality_ci=bad)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_bad_confidence(self, bad):
        with pytest.raises(ValueError):
            Precision(node_ci=0.05, confidence=bad)

    def test_rejects_min_above_max(self):
        with pytest.raises(ValueError):
            Precision(node_ci=0.05, min_trials=100, max_trials=50)

    def test_with_cap_clamps_min_trials(self):
        p = Precision(node_ci=0.05, min_trials=64).with_cap(16)
        assert p.max_trials == 16
        assert p.min_trials == 16


class TestPrecisionJson:
    def test_round_trip(self):
        p = Precision(node_ci=0.02, inequality_ci=0.5, confidence=0.9,
                      max_trials=5000, min_trials=10)
        assert Precision.from_json(p.to_json()) == p

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown precision"):
            Precision.from_json({"node_ci": 0.05, "trials": 100})

    def test_empty_block_gets_default_target(self):
        assert Precision.from_json({}).node_ci == DEFAULT_NODE_CI


class TestStoppingRule:
    def _evidence(self, p: float, trials: int) -> np.ndarray:
        return np.array([p * trials, (1 - p) * trials])

    def test_no_evidence_never_satisfied(self):
        rule = Precision(node_ci=0.5).rule()
        decision = rule.check(None, 0)
        assert not decision.should_stop
        assert decision.node_halfwidth == float("inf")

    def test_min_trials_blocks_early_closure(self):
        # 8/8 successes give a tight Wilson interval, but min_trials=32
        # must still hold the request open.
        rule = Precision(node_ci=0.5, min_trials=32).rule()
        decision = rule.check(self._evidence(1.0, 8), 8)
        assert not decision.satisfied

    def test_cap_detection(self):
        rule = Precision(node_ci=0.0001, max_trials=100).rule()
        decision = rule.check(self._evidence(0.5, 100), 100)
        assert decision.capped and not decision.satisfied
        assert decision.should_stop

    def test_closure_is_monotone_in_trials(self):
        # Once the CI closes at some n, more evidence at the same
        # frequency can only keep it closed.
        rule = Precision(node_ci=0.05).rule()
        satisfied = [
            rule.check(self._evidence(0.5, n), n).satisfied
            for n in (50, 200, 500, 2000, 8000)
        ]
        assert satisfied == sorted(satisfied)
        assert satisfied[-1]

    def test_both_targets_must_hold(self):
        # Node CI closes long before a 0.01-wide inequality interval.
        loose = Precision(node_ci=0.1).rule()
        strict = Precision(node_ci=0.1, inequality_ci=0.01).rule()
        counts, trials = self._evidence(0.5, 400), 400
        assert loose.check(counts, trials).satisfied
        assert not strict.check(counts, trials).satisfied

    def test_achieved_reports_halfwidths(self):
        rule = Precision(node_ci=0.05, inequality_ci=1.0).rule()
        achieved = rule.check(self._evidence(0.5, 400), 400).achieved()
        assert 0 < achieved["node_ci"] < 0.05
        assert achieved["inequality_ci"] > 0


class TestDeprecation:
    """No request shape warns: the v1 fixed budget is first-class."""

    def test_trials_only_does_not_warn(self):
        with Estimator(n_jobs=1) as svc:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                result = svc.estimate(graph_spec="path:4",
                                      algorithm="luby_fast", trials=16, seed=0)
        assert result.estimate.trials == 16

    def test_precision_does_not_warn(self):
        with Estimator(n_jobs=1) as svc:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                svc.estimate(graph_spec="path:4", algorithm="luby_fast",
                             precision=Precision(node_ci=0.2), seed=0)

    def test_trials_as_cap_alongside_precision_does_not_warn(self):
        with Estimator(n_jobs=1) as svc:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                result = svc.estimate(
                    graph_spec="path:4", algorithm="luby_fast",
                    trials=48, precision=Precision(node_ci=0.0001), seed=0,
                )
        assert result.realized_trials <= 48

    def test_neither_defaults_to_precision(self):
        with Estimator(n_jobs=1) as svc:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                result = svc.estimate(graph_spec="path:4",
                                      algorithm="luby_fast", seed=0)
        assert result.request.precision == Precision.default()

    def test_prebuilt_request_does_not_warn(self):
        request = EstimateRequest(graph_spec="path:4", algorithm="luby_fast",
                                  trials=16, seed=0)
        with Estimator(n_jobs=1) as svc:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                svc.estimate(request)


class TestSequentialStopping:
    def test_stops_early_with_correct_coverage(self):
        # path:2 → true join frequency is exactly 0.5 per node.  Across
        # 20 independent seeded requests the stopped estimate must land
        # within the target half-width at roughly nominal coverage (the
        # binomial chance of >4 misses at 95% per-seed coverage is
        # negligible), and every run must stop far below the cap.
        target = Precision(node_ci=0.1, max_trials=4000)
        covered = 0
        with Estimator(n_jobs=1) as svc:
            for seed in range(20):
                svc.cache.clear()  # keep the 20 requests independent
                result = svc.estimate(
                    graph_spec="path:2", algorithm="luby_fast",
                    precision=target, seed=seed,
                )
                assert result.stopped_early
                assert result.realized_trials < target.max_trials
                assert result.precision_achieved["node_ci"] <= 0.1
                p_hat = result.estimate.probabilities
                if np.all(np.abs(p_hat - 0.5) <= 0.1):
                    covered += 1
        assert covered >= 15

    def test_realized_trials_tracks_wilson_budget(self):
        # At p=0.5 a ±0.1 Wilson interval needs ~96 trials; sequential
        # stopping should land in that ballpark, not at the cap.
        with Estimator(n_jobs=1) as svc:
            result = svc.estimate(
                graph_spec="path:2", algorithm="luby_fast",
                precision=Precision(node_ci=0.1, max_trials=4000), seed=7,
            )
        assert 64 <= result.realized_trials <= 512


class TestEvidenceReuse:
    def test_fixed_run_seeds_precision_request(self):
        with Estimator(n_jobs=1) as svc:
            svc.estimate(graph_spec="path:4", algorithm="luby_fast",
                         trials=500, seed=0)
            warm = svc.estimate(
                graph_spec="path:4", algorithm="luby_fast",
                precision=Precision(node_ci=0.05), seed=1,
            )
        total = svc.registry.counter
        # 500 pooled trials give a ±0.044 interval at p=0.5 — the 0.05
        # target is already met, so the warm request runs nothing new.
        assert warm.cached
        assert warm.trials_run == 0
        assert warm.prior_trials == 500
        assert warm.realized_trials == 500
        assert warm.stopped_early
        assert total("service_evidence_hits_total").value >= 1
        assert total("service_evidence_deposits_total").value >= 1
        assert total("service_early_stops_total").value >= 1
        assert total("service_evidence_trials_reused_total").value >= 500

    def test_precision_runs_deposit_evidence_too(self):
        with Estimator(n_jobs=1) as svc:
            first = svc.estimate(
                graph_spec="path:4", algorithm="luby_fast",
                precision=Precision(node_ci=0.1), seed=0,
            )
            second = svc.estimate(
                graph_spec="path:4", algorithm="luby_fast",
                precision=Precision(node_ci=0.1), seed=1,
            )
        assert first.prior_trials == 0
        assert second.prior_trials == first.realized_trials
        assert second.trials_run == 0

    def test_seeded_repeat_does_not_double_count(self):
        # Re-running the identical seeded fixed request must not inflate
        # the evidence pool with correlated samples.
        with Estimator(n_jobs=1) as svc:
            for _ in range(2):
                result = svc.estimate(graph_spec="path:4", algorithm="luby_fast",
                                      trials=64, seed=0)
            graph_hash = result.graph_hash
            key = EstimateRequest(
                graph_spec="path:4", algorithm="luby_fast", trials=64, seed=0
            ).algorithm_key()
            assert svc.cache.evidence_trials(graph_hash, key) == 64


class TestHardCap:
    def test_unreachable_target_stops_at_cap(self):
        with Estimator(n_jobs=1) as svc:
            result = svc.estimate(
                graph_spec="path:4", algorithm="luby_fast",
                precision=Precision(node_ci=0.0001, max_trials=100), seed=0,
            )
        assert result.realized_trials == 100
        assert not result.stopped_early
        assert result.precision_achieved["node_ci"] > 0.0001

    def test_trials_kwarg_overrides_cap(self):
        with Estimator(n_jobs=1) as svc:
            result = svc.estimate(
                graph_spec="path:4", algorithm="luby_fast",
                trials=48, precision=Precision(node_ci=0.0001), seed=0,
            )
        assert result.realized_trials == 48
        assert not result.stopped_early


class TestWireProtocol:
    def test_v1_line_parses_with_fixed_trials(self):
        req = EstimateRequest.from_json(
            {"graph": "path:4", "algorithm": "luby_fast", "trials": 64}
        )
        assert req.trials == 64
        assert req.precision is None

    def test_v1_line_rejects_precision_block(self):
        with pytest.raises(ValueError):
            EstimateRequest.from_json(
                {"graph": "path:4", "algorithm": "luby_fast",
                 "precision": {"node_ci": 0.05}}
            )

    def test_v2_round_trip(self):
        req = EstimateRequest.from_json(
            {"v": 2, "graph": "path:4", "algorithm": "luby_fast",
             "seed": 3, "precision": {"node_ci": 0.05, "max_trials": 512}}
        )
        assert req.precision == Precision(node_ci=0.05, max_trials=512)
        encoded = req.to_json()
        assert encoded["v"] == 2
        assert EstimateRequest.from_json(encoded).precision == req.precision

    def test_v2_defaults_to_default_precision(self):
        req = EstimateRequest.from_json(
            {"v": 2, "graph": "path:4", "algorithm": "luby_fast"}
        )
        assert req.precision == Precision.default()

    def test_serve_loop_serves_v1_without_a_note(self, capsys):
        lines = [
            json.dumps({"graph": "path:4", "algorithm": "luby_fast",
                        "trials": 16, "seed": 1}),
            json.dumps({"graph": "path:4", "algorithm": "luby_fast",
                        "trials": 16, "seed": 2}),
            json.dumps({"v": 2, "graph": "path:4", "algorithm": "luby_fast",
                        "seed": 3,
                        "precision": {"node_ci": 0.2, "max_trials": 256}}),
        ]

        class _Sink:
            def __init__(self):
                self.lines = []

            def write(self, text):
                self.lines.append(text)

            def flush(self):
                pass

        sink = _Sink()
        errors = _service_loop(
            lines, sink, jobs=1, cache_size=8, mode="auto",
            include_counts=False,
        )
        assert errors == 0
        captured = capsys.readouterr()
        assert "v1" not in captured.err and "deprecat" not in captured.err
        results = [json.loads(line) for line in sink.lines]
        assert [r["trials"] for r in results[:2]] == [16, 16]
        assert results[2]["v"] == 2
        assert "realized_trials" in results[2]

    def test_v2_result_reports_precision_fields(self):
        with Estimator(n_jobs=1) as svc:
            result = svc.estimate(
                graph_spec="path:4", algorithm="luby_fast",
                precision=Precision(node_ci=0.2), seed=0,
            )
        payload = result.to_json(include_counts=False)
        assert payload["v"] == 2
        assert payload["realized_trials"] == result.realized_trials
        assert payload["stopped_early"] == result.stopped_early
        assert "precision_achieved" in payload
