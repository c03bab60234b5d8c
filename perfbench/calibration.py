"""A machine-speed reference, so that times taken on a noisy shared machine compare.

On a small shared machine the speed of the same pure-Python code swings by
up to 2x from one tenth of a second to the next and drifts by half within a
minute. While a pass runs, a fixed loop of this benchmark's own integer code
(never the program's) runs every PERIOD_S from a timer signal, and the
Clock that times everything stops while it runs. Clock.reference() converts
an interval of clock seconds to reference seconds: measured seconds times
REFERENCE_S over the mean time of the loops run within PERIOD_S of the
interval, since a slow spell slows the program and the loop alike. Where the
loop takes REFERENCE_S, a reference second is a second.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

import inputs

PERIOD_S = 0.1
REFERENCE_S = 0.004


def reference_loop() -> int:
    """Fixed work: square-free parts and Hilbert symbols of small integers."""
    acc = 0
    for n in range(2, 1000):
        acc += inputs.squarefree_part(7 * n - 3) % 5
        acc += inputs.hilbert(-3 if n % 2 else 5, 7, None)
    return acc


def loop_seconds() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class Clock:
    """perf_counter without the time spent in calibration loops."""

    def __init__(self) -> None:
        self.paused_ns = 0
        self.samples: list[float] = []  # loop seconds
        self.times: list[float] = []  # clock seconds at which each loop ran
        self.busy = False

    def now_ns(self) -> int:
        return time.perf_counter_ns() - self.paused_ns

    def now(self) -> float:
        return self.now_ns() / 1e9

    def calibrate(self, *_signal) -> None:
        if self.busy:  # a timer signal arrived during a loop; skip it
            return
        self.busy = True
        at = self.now()
        start = time.perf_counter_ns()
        reference_loop()
        elapsed = time.perf_counter_ns() - start
        self.samples.append(elapsed / 1e9)
        self.times.append(at)
        self.paused_ns += elapsed
        self.busy = False

    def start(self) -> None:
        self.calibrate()
        signal.signal(signal.SIGALRM, self.calibrate)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.calibrate()

    def scale(self) -> float:
        """Reference seconds per clock second over the whole pass."""
        return REFERENCE_S / statistics.fmean(self.samples)

    def reference(self, start: float, end: float) -> float:
        """Reference seconds for the clock interval from start to end."""
        lo = bisect_left(self.times, start - PERIOD_S)
        hi = bisect_right(self.times, end + PERIOD_S)
        near = self.samples[lo:hi] or [self.samples[min(lo, len(self.samples) - 1)]]
        return (end - start) * REFERENCE_S / statistics.fmean(near)
