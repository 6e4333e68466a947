"""A gauge of the host's current speed, for scaling command times.

On a shared virtual machine the same Python code was seen to run up to
twice as slow, in bursts from about a second to minutes long, in CPU time
as much as in wall time: the process keeps its core, but the core does
less work per second.  A slow stretch can cover a whole run, so the fastest
of a run's passes does not remove it.

The gauge times a fixed reference loop that uses nothing from the package:
Fraction and big-integer arithmetic, list convolution, dict churn and
256-bit mpmath arithmetic, the kinds of work the package does.  The runner
takes samples between commands; while the gauge is entered, a profiling
timer also takes one every ``TICK_S`` of CPU time, so that a command of a
second or more is gauged while it runs, not only at its ends.  Times are
scaled by ``NOMINAL_S`` over the mean of the samples taken around and
during them, and the timer's own time is taken out of them.  The loop never
changes with the package, so a change to the package moves scaled times as
much as it moves raw ones.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction
from typing import List, Sequence

import mpmath

# The reference loop's time on a quiet two-vCPU x86-64 VM under CPython
# 3.11 with mpmath's pure-Python backend.  Only ratios of scaled times mean
# anything; the constant keeps scaled times close to raw ones on such a
# host.
NOMINAL_S = 0.005
REPEATS = 3
TICK_S = 0.1


def _reference() -> object:
    s = Fraction(0)
    for i in range(1, 150):
        s += Fraction(i, 2 * i + 1) * Fraction(3, i + 7)
    a = [(i * i) % 97 + 1 for i in range(90)]
    c = [0] * 180
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            c[i + j] += x * y
    d: dict = {}
    for i in range(3000):
        key = (i % 61, i % 7)
        d[key] = d.get(key, 0) + i
    with mpmath.workprec(256):
        x = mpmath.mpf(1)
        y = mpmath.mpf(1) / 3
        for i in range(400):
            x = x * y + mpmath.mpf(i)
            x = x / (1 + y)
    return s, c[50], len(d), x


def _timed() -> float:
    """One reference loop, in seconds, with the collector off so that the
    size of the caller's heap does not enter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(samples: Sequence[float]) -> float:
    """The factor for times measured while ``samples`` were taken.  The
    mean, not the fastest: a slow loop is the host slowing down, and that
    is what the gauge is there to see."""
    return NOMINAL_S * len(samples) / sum(samples)


class Gauge:
    """Reference-loop times in ``samples``; ``spent`` is the time the timer
    took from whatever it interrupted."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def take(self, repeats: int = REPEATS) -> None:
        self.samples.extend(_timed() for _ in range(repeats))

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.take(1)
        self.spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
