"""The machine's speed over a run, sampled with a fixed reference loop.

On a shared host the same op can take 30 % longer from one minute to the
next.  A timer signal interrupts the run every INTERVAL_S seconds to time a
fixed exact-arithmetic loop; the time the loop takes at that moment, next
to REFERENCE_S (the loop's time on an unloaded machine), gives the speed
around it.  Times are then reported at the reference speed:

    reported = measured * mean(REFERENCE_S / reference loop time around it)

and the sampler's own time is taken out of every measurement.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction
from typing import List, Tuple

INTERVAL_S = 0.25
# Short ops take the speed of the samples within this many seconds around them.
WINDOW_S = 1.0
# Seconds the loop takes on an unloaded machine (the median of its fast
# phase on the machine the benchmark was written on); it only fixes the
# scale, so that reported times read as seconds.
REFERENCE_S = 0.0095


def reference_loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(1, i % 97 + 1)
    return total


class SpeedSampler:
    """Samples the reference loop from SIGALRM while active; only one may be
    active at a time, and only in the main thread."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []   # (taken at, loop seconds)
        self.spent = 0.0                                 # seconds inside the handler
        self.listener = None                             # called with each sample's start, end
        self._previous = None
        self._times: List[float] = []

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        reference_loop()
        loop = time.perf_counter() - started
        self.samples.append((started, loop))
        if self.listener is not None:
            self.listener(started, time.perf_counter())
        self.spent += time.perf_counter() - started

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(signal.SIGALRM, None)

    def scale(self, start: float, end: float) -> float:
        """Mean of REFERENCE_S / loop time over the samples taken from
        WINDOW_S before start to WINDOW_S after end.  The samples are evenly
        spaced, so this weighs each stretch of the interval by its length:
        work done at a varying speed, timed at the reference speed."""
        if len(self._times) != len(self.samples):
            self._times = [t for t, _ in self.samples]
        lo = max(bisect.bisect_left(self._times, start - WINDOW_S) - 1, 0)
        hi = min(bisect.bisect_right(self._times, end + WINDOW_S) + 1, len(self._times))
        return statistics.fmean(REFERENCE_S / loop for _, loop in self.samples[lo:hi])
