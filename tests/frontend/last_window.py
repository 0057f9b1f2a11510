"""The naive load estimator the admission tests measure peak-hold against."""

from __future__ import annotations

import time
from typing import Callable


class LastWindowEstimator:
    """Mean load over a short trailing window.

    Its estimate collapses as soon as a burst leaves the window, which
    is exactly the bouncing behaviour
    :class:`repro.frontend.admission.PeakHoldEstimator` exists to avoid.
    """

    def __init__(
        self,
        window_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.window_s = float(window_s)
        self._clock = clock
        self._samples: list[tuple[float, float]] = []

    def observe(self, load: float) -> float:
        now = self._clock()
        self._samples.append((now, max(0.0, float(load))))
        cutoff = now - self.window_s
        self._samples = [(t, v) for t, v in self._samples if t >= cutoff]
        return self.peak

    @property
    def peak(self) -> float:
        """Mean of the in-window samples (0 when the window is empty)."""
        if not self._samples:
            return 0.0
        return sum(v for _, v in self._samples) / len(self._samples)

    @property
    def current(self) -> float:
        return self._samples[-1][1] if self._samples else 0.0
