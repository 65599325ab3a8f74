"""A clock that runs at the host's current speed.

The benchmark host is a few cores of a shared machine whose speed switches
between states about 1.5x apart, for stretches of a fraction of a second to
minutes, while our process keeps its core (CPU time tracks wall time).  A
wall-clock time then says as much about the state the host was in as about
the program.

``HostClock`` measures the host's speed while the program runs: an interval
timer (SIGALRM, ``setitimer``) interrupts the main thread every ``PERIOD_S``
seconds of wall time, and the handler times a fixed pure-Python loop that
touches nothing of the program.  ``now()`` integrates wall time weighted by
the speed the loop measured, so it advances by reference seconds: the time
the same work would have taken with the loop running at ``REF_LOOP_S`` per
call.  The handler's own time is left out of the clock.

Differences of ``now()`` are what the benchmark reports; the plain wall
times are printed beside them.  Everything runs in the one thread of the
process; no other process or thread is started.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.01
LOOP_ITERS = 300
# Seconds one loop call takes when this host runs fast (Intel Xeon, 2.1 GHz,
# Python 3.11): the unit of the clock.  Only ratios to it are used, so any
# fixed value gives the same comparisons between runs.
REF_LOOP_S = 47e-6


def reference_loop() -> int:
    """Fixed interpreter work: integer arithmetic, list and dict stores."""
    s = 1
    slots = [0] * 16
    seen = {}
    for i in range(LOOP_ITERS):
        s = (s * 31 + i) % 65521
        slots[i & 15] = s
        seen[s & 63] = i
    return s + len(seen)


class HostClock:
    def __init__(self):
        self.work = 0.0          # reference seconds up to self.mark
        self.mark = None         # wall time the last handler returned
        self.speed = 1.0         # last measured reference seconds per wall second
        self.loops: list[float] = []  # seconds each reference loop took
        self._old = None

    def _tick(self, signum, frame):
        entry = time.perf_counter()
        t0 = time.perf_counter()
        reference_loop()
        self.loops.append(time.perf_counter() - t0)
        # the median of the last three readings, so that one loop cut by a
        # context switch does not count
        last = sorted(self.loops[-3:])
        speed = REF_LOOP_S / last[len(last) // 2]
        # the stretch since the last tick ran at a speed between the two readings
        self.work += (entry - self.mark) * (self.speed + speed) / 2
        self.speed = speed
        self.mark = time.perf_counter()

    def start(self) -> "HostClock":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        t0 = time.perf_counter()
        reference_loop()
        self.loops.append(time.perf_counter() - t0)
        self.speed = REF_LOOP_S / self.loops[-1]
        self.mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def now(self) -> float:
        """Reference seconds since ``start``."""
        while True:
            mark, work, speed = self.mark, self.work, self.speed
            now = time.perf_counter()
            if mark == self.mark:  # no tick in between
                return work + (now - mark) * speed

    def mean_speed(self) -> float:
        """Mean speed over the readings so far, reference over wall seconds."""
        return REF_LOOP_S * sum(1 / x for x in self.loops) / len(self.loops)
