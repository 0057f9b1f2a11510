"""Convergence traces and `repro explain`."""

import json

import pytest

from repro.service import ConvergenceTrace, Estimator, Precision, TraceFrame


def frame(round=1, trials=64, hw=0.1, satisfied=False, capped=False, **kw):
    defaults = dict(
        round=round,
        chunks=1,
        new_trials=trials,
        total_new_trials=trials,
        prior_trials=0,
        trials=trials,
        node_halfwidth=hw,
        node_target=0.025,
        inequality_halfwidth=None,
        inequality_target=None,
        predicted_remaining=0,
        satisfied=satisfied,
        capped=capped,
        wall_s=0.01,
    )
    defaults.update(kw)
    return TraceFrame(**defaults)


def trace(request_id="r1", stop_reason="satisfied", frames=(), **kw):
    defaults = dict(
        request_id=request_id,
        algorithm="fair_tree_fast",
        graph_hash="h" * 8,
        mode="vectorized",
        stop_reason=stop_reason,
        prior_trials=0,
        new_trials=64,
        cached=False,
        precision={"node_ci": 0.025},
        frames=tuple(frames),
    )
    defaults.update(kw)
    return ConvergenceTrace(**defaults)


class TestTraceFrame:
    def test_outcome(self):
        assert frame().outcome == "continue"
        assert frame(satisfied=True).outcome == "satisfied"
        assert frame(capped=True).outcome == "capped"

    def test_json_round_trip(self):
        f = frame(satisfied=True, inequality_halfwidth=0.3,
                  inequality_target=0.5)
        back = TraceFrame.from_json(json.loads(json.dumps(f.to_json())))
        assert back == f

    def test_json_serializes_outcome_not_flags(self):
        doc = frame(capped=True).to_json()
        assert doc["outcome"] == "capped"
        assert "satisfied" not in doc and "capped" not in doc


class TestConvergenceTrace:
    def test_stop_reason_validated(self):
        with pytest.raises(ValueError):
            trace(stop_reason="whatever")

    def test_rounds_excludes_prior_frame(self):
        t = trace(frames=[frame(round=0), frame(round=1), frame(round=2)])
        assert t.rounds == 2

    def test_stopped_early(self):
        assert trace(stop_reason="satisfied").stopped_early
        assert not trace(stop_reason="capped").stopped_early
        assert not trace(stop_reason="fixed-budget").stopped_early

    def test_node_halfwidths_trajectory(self):
        t = trace(frames=[frame(hw=0.2), frame(round=2, hw=0.05)])
        assert t.node_halfwidths() == [0.2, 0.05]

    def test_json_round_trip(self):
        t = trace(frames=[frame(), frame(round=2, satisfied=True)])
        back = ConvergenceTrace.from_json(json.loads(json.dumps(t.to_json())))
        assert back == t


class TestEndToEnd:
    def test_cold_precision_request_traces_rounds(self):
        with Estimator(n_jobs=1) as svc:
            result = svc.estimate(
                graph_spec="tree:40:1",
                algorithm="fair_tree_fast",
                precision=Precision.default(),
                seed=0,
                trace=True,
                request_id="probe",
            )
        t = result.convergence
        # A cold default-precision request cannot close its CI in the
        # first 64-trial round, so the audit has at least two rounds.
        assert t.rounds >= 2
        widths = t.node_halfwidths()
        assert all(b <= a for a, b in zip(widths, widths[1:]))
        assert t.stop_reason in ("satisfied", "capped")
        assert t.stopped_early == result.stopped_early
        assert t.frames[-1].outcome == t.stop_reason
        assert t.new_trials == result.trials_run
        # Pre-stop frames predict remaining work; the final one is done.
        assert t.frames[0].predicted_remaining > 0
        assert t.frames[-1].predicted_remaining == 0

    def test_warm_request_audits_prior_only_decision(self):
        with Estimator(n_jobs=1) as svc:
            svc.estimate(
                graph_spec="tree:40:1",
                algorithm="fair_tree_fast",
                precision=Precision.default(),
                seed=0,
            )
            warm = svc.estimate(
                graph_spec="tree:40:1",
                algorithm="fair_tree_fast",
                precision=Precision.default(),
                seed=1,
                trace=True,
            )
        t = warm.convergence
        assert t.cached
        assert t.stop_reason == "satisfied"
        assert t.rounds == 0 and t.frames[0].round == 0
        assert t.prior_trials > 0 and t.new_trials == 0

    def test_fixed_budget_gets_degenerate_trace(self):
        with Estimator(n_jobs=1) as svc:
            result = svc.estimate(
                graph_spec="tree:40:1",
                algorithm="luby_fast",
                trials=64,
                seed=0,
                trace=True,
            )
        t = result.convergence
        assert t.stop_reason == "fixed-budget"
        assert len(t.frames) == 1
        assert t.frames[0].node_halfwidth > 0
        assert not t.stopped_early

    def test_envelope_carries_trace_only_on_request(self):
        with Estimator(n_jobs=1) as svc:
            quiet = svc.estimate(
                graph_spec="tree:40:1",
                algorithm="fair_tree_fast",
                precision=Precision.default(),
                seed=0,
            )
            loud = svc.estimate(
                graph_spec="tree:40:1",
                algorithm="fair_tree_fast",
                precision=Precision.default(),
                seed=0,
                trace=True,
            )
        assert quiet.convergence is not None  # always recorded...
        assert "convergence" not in quiet.to_json()  # ...selectively shipped
        doc = loud.to_json()
        assert doc["v"] == 2
        restored = ConvergenceTrace.from_json(doc["convergence"])
        assert restored == loud.convergence
