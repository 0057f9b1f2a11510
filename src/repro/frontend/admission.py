"""Adaptive admission control for the sharded front end.

The front end must keep serving within its latency SLO while arbitrary
clients pour requests at it.  Three cooperating pieces live here:

:class:`PeakHoldEstimator`
    The load signal the throttle trusts.  It **remembers the worst load
    seen and decays it slowly** (exponential, configurable half-life)
    instead of averaging a recent window.  Under bursty traffic a
    last-window estimator *bounces*: each quiet gap makes it forget the
    burst, admit everything, get overrun, then slam shut — an admit-rate
    square wave that trashes tail latency.  The peak-hold estimate
    changes on the half-life timescale, so the admit rate stays put
    between bursts.

:class:`AdmissionController`
    Turns the held peak into a deterministic admit/shed decision.  While
    the peak stays at or below ``shed_threshold`` everything is
    admitted; above it the admit fraction is ``shed_threshold / peak``
    (serve exactly what the worst observed load says we can afford),
    metered out by an error-diffusion credit accumulator so a 0.5
    fraction admits precisely every other request — no RNG, fully
    reproducible.

:class:`TokenBucket`
    Classic per-client rate limiting (sustained rate + burst), applied
    before admission control so one chatty client cannot eat the whole
    admit budget.

Load is expressed as *normalized queue pressure*: the routed shard's
queue depth divided by its capacity, so ``1.0`` means "the queue a shed
decision protects is exactly full".  All classes take an injectable
``clock`` (seconds, monotonic) — tests drive them deterministically.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = [
    "AdmissionController",
    "PeakHoldEstimator",
    "TokenBucket",
]


class PeakHoldEstimator:
    """Peak-hold load estimate: remember the worst, decay slowly.

    ``observe(load)`` folds one sample in; :attr:`peak` reads the held
    maximum decayed to *now* (never below the most recent sample).  With
    ``half_life_s=30`` a burst that hit load 2.0 still reads 1.0 thirty
    seconds after it ended — the throttle keeps its guard up long after
    a windowed average has forgotten the burst entirely.
    """

    def __init__(
        self,
        half_life_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if half_life_s <= 0:
            raise ValueError("half_life_s must be positive")
        self.half_life_s = float(half_life_s)
        self._clock = clock
        self._peak = 0.0
        self._current = 0.0
        self._held_at = clock()

    def _decayed(self, now: float) -> float:
        dt = max(0.0, now - self._held_at)
        return self._peak * 0.5 ** (dt / self.half_life_s)

    def observe(self, load: float) -> float:
        """Fold one load sample in; returns the updated held peak."""
        load = max(0.0, float(load))
        now = self._clock()
        decayed = self._decayed(now)
        self._current = load
        self._peak = max(decayed, load)
        self._held_at = now
        return self._peak

    @property
    def peak(self) -> float:
        """The held worst-case load, decayed to now."""
        return max(self._decayed(self._clock()), self._current * 0.0)

    @property
    def current(self) -> float:
        """The most recent raw sample (no hold, no decay)."""
        return self._current


class AdmissionController:
    """Deterministic admit/shed decisions against a held load estimate.

    Any estimator with ``observe(load) / .peak / .current`` works; the
    front end uses :class:`PeakHoldEstimator`.  The admit fraction is::

        1.0                      while peak <= shed_threshold
        shed_threshold / peak    above it (floored at min_admit)

    metered by error diffusion: each decision adds the fraction to a
    credit; a request is admitted when the credit reaches 1.  A fraction
    of 1/3 therefore admits exactly every third request — deterministic,
    testable, and fair in aggregate without randomness.
    """

    def __init__(
        self,
        estimator: PeakHoldEstimator | None = None,
        shed_threshold: float = 0.85,
        min_admit: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not 0.0 < shed_threshold:
            raise ValueError("shed_threshold must be positive")
        if not 0.0 < min_admit <= 1.0:
            raise ValueError("min_admit must be in (0, 1]")
        self.estimator = (
            estimator if estimator is not None else PeakHoldEstimator(clock=clock)
        )
        self.shed_threshold = float(shed_threshold)
        self.min_admit = float(min_admit)
        self._credit = 0.0

    def observe(self, load: float) -> None:
        """Feed one normalized load sample to the estimator."""
        self.estimator.observe(load)

    @property
    def peak_load(self) -> float:
        return self.estimator.peak

    @property
    def current_load(self) -> float:
        return self.estimator.current

    def admit_fraction(self) -> float:
        """The fraction of traffic currently admitted (0–1]."""
        peak = self.estimator.peak
        if peak <= self.shed_threshold:
            return 1.0
        return max(self.min_admit, self.shed_threshold / peak)

    def admit(self, load: float | None = None) -> bool:
        """One admit/shed decision (optionally folding a sample first)."""
        if load is not None:
            self.observe(load)
        self._credit += self.admit_fraction()
        if self._credit >= 1.0:
            self._credit -= 1.0
            return True
        return False


class TokenBucket:
    """Per-client token bucket: ``rate`` tokens/s, ``burst`` capacity.

    ``allow()`` spends one token when available.  The bucket starts
    full, so a client may burst up to *burst* requests before the
    sustained rate applies.
    """

    def __init__(
        self,
        rate: float,
        burst: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, 2 * rate)
        if self.burst < 1.0:
            raise ValueError("burst must be at least 1")
        self._clock = clock
        self._tokens = self.burst
        self._refilled = clock()

    def _refill(self, now: float) -> None:
        dt = max(0.0, now - self._refilled)
        self._tokens = min(self.burst, self._tokens + dt * self.rate)
        self._refilled = now

    def allow(self) -> bool:
        """Spend one token if available; False means rate-limit the call."""
        self._refill(self._clock())
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    @property
    def tokens(self) -> float:
        """Tokens available right now (after refill)."""
        self._refill(self._clock())
        return self._tokens
