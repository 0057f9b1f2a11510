"""Unit tests for run metrics."""

from repro.runtime import RunMetrics


class TestRunMetrics:
    def test_record_round_accumulates(self):
        m = RunMetrics()
        m.record_round(1, messages=4, slots=8, active_nodes=3)
        m.record_round(2, messages=2, slots=2, active_nodes=1)
        assert m.rounds == 2
        assert m.total_messages == 6
        assert m.total_slots == 10
        assert len(m.per_round) == 2

    def test_observe_message_tracks_max(self):
        m = RunMetrics()
        m.observe_message(3)
        m.observe_message(7)
        m.observe_message(2)
        assert m.max_slots_per_message == 7

    def test_mean_messages_empty(self):
        assert RunMetrics().mean_messages_per_round == 0.0

    def test_mean_messages(self):
        m = RunMetrics()
        m.record_round(1, messages=4, slots=4, active_nodes=2)
        m.record_round(2, messages=2, slots=2, active_nodes=2)
        assert m.mean_messages_per_round == 3.0

    def test_round_record_fields(self):
        m = RunMetrics()
        m.record_round(1, messages=5, slots=9, active_nodes=4)
        rec = m.per_round[0]
        assert rec.round_index == 1
        assert rec.messages == 5
        assert rec.slots == 9
        assert rec.active_nodes == 4

    def test_record_round_out_of_order_keeps_max(self):
        # Regression: ``rounds`` previously took the *last* recorded index,
        # so out-of-order recording (or a trailing round-0 record) would
        # silently under-count the run.
        m = RunMetrics()
        m.record_round(5, messages=1, slots=1, active_nodes=1)
        m.record_round(3, messages=1, slots=1, active_nodes=1)
        m.record_round(0, messages=0, slots=0, active_nodes=0)
        assert m.rounds == 5
        assert len(m.per_round) == 3

