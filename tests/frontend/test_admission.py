"""Peak-hold admission control in isolation (fake clock throughout)."""

import pytest

from repro.frontend.admission import (
    AdmissionController,
    PeakHoldEstimator,
    TokenBucket,
)

from .last_window import LastWindowEstimator


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestPeakHoldEstimator:
    def test_monotone_peak_capture(self):
        clock = FakeClock()
        est = PeakHoldEstimator(half_life_s=30.0, clock=clock)
        for load in (0.1, 0.5, 0.3, 0.9, 0.2):
            est.observe(load)
        assert est.peak == pytest.approx(0.9)
        assert est.current == pytest.approx(0.2)

    def test_exponential_decay_half_life(self):
        clock = FakeClock()
        est = PeakHoldEstimator(half_life_s=10.0, clock=clock)
        est.observe(2.0)
        clock.advance(10.0)
        assert est.peak == pytest.approx(1.0)
        clock.advance(10.0)
        assert est.peak == pytest.approx(0.5)

    def test_decay_is_slow_relative_to_bursts(self):
        # A burst that ended 1s ago must still dominate the estimate.
        clock = FakeClock()
        est = PeakHoldEstimator(half_life_s=30.0, clock=clock)
        est.observe(1.5)
        clock.advance(1.0)
        est.observe(0.0)  # quiet sample does not erase the held peak
        assert est.peak > 1.4

    def test_new_peak_replaces_decayed_one(self):
        clock = FakeClock()
        est = PeakHoldEstimator(half_life_s=10.0, clock=clock)
        est.observe(1.0)
        clock.advance(50.0)  # held peak decayed to ~0.03
        est.observe(0.8)
        assert est.peak == pytest.approx(0.8)

    def test_rejects_nonpositive_half_life(self):
        with pytest.raises(ValueError):
            PeakHoldEstimator(half_life_s=0.0)


class TestLastWindowEstimator:
    def test_mean_over_window(self):
        clock = FakeClock()
        est = LastWindowEstimator(window_s=10.0, clock=clock)
        est.observe(1.0)
        clock.advance(1.0)
        est.observe(0.0)
        assert est.peak == pytest.approx(0.5)

    def test_forgets_outside_window(self):
        clock = FakeClock()
        est = LastWindowEstimator(window_s=5.0, clock=clock)
        est.observe(2.0)
        clock.advance(6.0)
        est.observe(0.0)
        assert est.peak == pytest.approx(0.0)


class TestAdmissionController:
    def test_admits_everything_below_threshold(self):
        clock = FakeClock()
        ctl = AdmissionController(
            PeakHoldEstimator(clock=clock), shed_threshold=0.85
        )
        assert all(ctl.admit(0.3) for _ in range(50))

    def test_fraction_tracks_held_peak(self):
        clock = FakeClock()
        ctl = AdmissionController(
            PeakHoldEstimator(clock=clock), shed_threshold=0.8
        )
        ctl.observe(1.6)
        assert ctl.admit_fraction() == pytest.approx(0.5)

    def test_credit_accumulator_is_deterministic(self):
        # Fraction 0.5 must admit exactly every other request.
        clock = FakeClock()
        ctl = AdmissionController(
            PeakHoldEstimator(clock=clock), shed_threshold=0.8
        )
        ctl.observe(1.6)
        decisions = [ctl.admit() for _ in range(10)]
        assert decisions == [False, True] * 5

    def test_min_admit_floor(self):
        clock = FakeClock()
        ctl = AdmissionController(
            PeakHoldEstimator(clock=clock),
            shed_threshold=0.5,
            min_admit=0.2,
        )
        ctl.observe(1000.0)
        assert ctl.admit_fraction() == pytest.approx(0.2)

    def test_square_wave_peak_hold_stable_while_last_window_bounces(self):
        """The satellite's headline property, on a bursty square wave.

        Traffic alternates 5s bursts at load 1.6 with 15s quiet at 0.2.
        A last-window estimator forgets each burst as soon as it leaves
        the window, so its admit fraction bounces between full-open and
        half-shut; the peak-hold estimate barely moves (60s half-life
        across a 20s period), holding a stable admit rate.
        """

        def drive(make_ctl):
            clock = FakeClock()
            ctl = make_ctl(clock)
            fractions = []
            for _cycle in range(6):
                for _ in range(5):  # burst: 1 sample/s at load 1.6
                    ctl.admit(1.6)
                    clock.advance(1.0)
                for _ in range(15):  # quiet: load 0.2
                    ctl.admit(0.2)
                    fractions.append(ctl.admit_fraction())
                    clock.advance(1.0)
            # Skip the first cycle: both estimators start cold.
            return fractions[15:]

        peak_hold = drive(
            lambda c: AdmissionController(
                PeakHoldEstimator(half_life_s=60.0, clock=c),
                shed_threshold=0.8,
            )
        )
        last_window = drive(
            lambda c: AdmissionController(
                LastWindowEstimator(window_s=5.0, clock=c),
                shed_threshold=0.8,
            )
        )

        # The naive estimator bounces: inside each quiet stretch it
        # swings all the way back to fully open after throttling.
        assert min(last_window) < 0.75
        assert max(last_window) == pytest.approx(1.0)
        bounce_naive = max(last_window) - min(last_window)

        # Peak-hold stays throttled and tight across the same trace.
        assert max(peak_hold) < 0.75
        bounce_peak = max(peak_hold) - min(peak_hold)
        assert bounce_peak < bounce_naive / 3


class TestTokenBucket:
    def test_burst_then_sustained_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.allow() for _ in range(4)] == [True, True, True, False]
        clock.advance(0.5)  # refills one token at 2/s
        assert bucket.allow()
        assert not bucket.allow()

    def test_tokens_capped_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.advance(100.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)
