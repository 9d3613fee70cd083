"""Speed calibration for timings on machines whose speed drifts.

On the shared machines this benchmark runs on, the speed of one core
changes by up to 40% within seconds, and within a single 0.5 s op.  A small
fixed kernel is therefore timed right before and after timed work and every
SAMPLE_S of CPU time inside it (from a SIGPROF handler), and each stretch of
work between two kernel runs is scaled by the kernel timings at its ends.
A calibrated time is the time the work takes on a machine where the kernel
takes REF_MS.  Repeated runs of one 0.5 s op spread by 13% (interquartile
range over median) when calibrated at its ends only, and by 3% when sampled
inside.  The kernel uses nothing from diffrad, so no change to diffrad
moves it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REF_MS = 1.0
SAMPLE_S = 0.02  # CPU seconds between kernel timings inside timed work


def reference_kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(1, i)
    return s


def kernel_ms() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return (time.perf_counter() - t0) * 1e3


def machine_ms() -> float:
    """Current time of the reference kernel in ms (median of three)."""
    return statistics.median(kernel_ms() for _ in range(3))


def speed(before_ms: float, after_ms: float) -> float:
    """Factor that turns a time measured between two kernel timings into
    calibrated time."""
    return 2 * REF_MS / (before_ms + after_ms)


def calibrate(marks: list, start: float, end: float) -> tuple[float, float]:
    """(raw s, calibrated s) of [start, end] without the kernel runs in it;
    `marks` are the (start, end) perf_counter times of kernel runs, sorted,
    with one before `start` and one after `end`."""
    raw = scaled = 0.0
    for (a0, a1), (b0, b1) in zip(marks, marks[1:]):
        lo, hi = max(a1, start), min(b0, end)
        if hi > lo:
            raw += hi - lo
            scaled += (hi - lo) * speed((a1 - a0) * 1e3, (b1 - b0) * 1e3)
    return raw, scaled


class SpeedSampler:
    """Records kernel runs: on `mark()`, and every SAMPLE_S of CPU time
    between `start()` and `stop()`."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []
        self._inside = False
        signal.signal(signal.SIGPROF, self._on_prof)

    def _on_prof(self, signum, frame):
        if not self._inside:
            self._inside = True
            try:
                self.mark()
            finally:
                self._inside = False

    def mark(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.marks.append((t0, time.perf_counter()))

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
