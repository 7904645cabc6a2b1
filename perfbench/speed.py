"""Machine speed, sampled while a timed interval runs.

The hosts this benchmark runs on change speed by up to 2x, for stretches of
a few seconds up to half a minute, so one run's raw wall times depend on how
much of it fell in a slow stretch.  While an interval is timed, a SIGALRM
timer fires every ``SAMPLE_PERIOD_S`` and its handler times ``probe``, a
fixed loop that does not use recurlab.  The interval's wall time, less the
probes' own time, is then scaled by ``PROBE_REF_S`` over the trimmed mean of
the probe times.  The result is in reference seconds: the time the interval
would take on the reference machine running at full speed.  A change to
recurlab moves it exactly as it moves wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from math import gcd

SAMPLE_PERIOD_S = 0.025
# Trimmed-mean time of ``probe`` on the reference machine (2-CPU Xeon VM,
# Python 3.11.7) at full speed.
PROBE_REF_S = 0.000125

_INTS = [(3**k + 12345) * 1000003 for k in range(40, 52)]


def probe() -> None:
    """A fixed big-integer loop.  It allocates nothing the GC tracks, so it
    cannot start a collection inside the op it interrupts."""
    acc = 0
    for a in _INTS:
        for b in _INTS:
            acc ^= gcd(a * b - (a + 7) * (b - 3), a)


def _trimmed_mean(values: list[float]) -> float:
    """Mean without the highest and lowest tenth."""
    values = sorted(values)
    k = len(values) // 10
    return statistics.mean(values[k:len(values) - k])


class Sampler:
    """Times intervals in wall and reference seconds.

    It owns SIGALRM, so a process has at most one.
    """

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - start)

    def measure(self, fn, *args):
        """Call ``fn(*args)``; return (result, wall seconds, reference seconds)."""
        self.samples.clear()
        # The first sample comes 1 ms in, so every interval gets one.
        signal.setitimer(signal.ITIMER_REAL, 0.001, SAMPLE_PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        inside = sum(self.samples)
        if not self.samples:
            self._tick(None, None)
        return result, wall, (wall - inside) * PROBE_REF_S / _trimmed_mean(self.samples)
