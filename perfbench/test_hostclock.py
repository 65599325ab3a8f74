"""Self-checks of the benchmark's host-speed clock.

    python3 -m pytest -q perfbench/test_hostclock.py

Not part of the repository's test suite (pytest collects only ``tests/`` by
default).
"""

from __future__ import annotations

import signal
import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostclock  # noqa: E402
from hostclock import HostClock  # noqa: E402


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_clock_ticks_and_advances():
    clock = HostClock().start()
    try:
        readings = [clock.now()]
        for _ in range(20):
            _busy(0.01)
            readings.append(clock.now())
    finally:
        clock.stop()
    assert readings == sorted(readings)
    assert readings[-1] > 0
    assert len(clock.loops) > 5
    # the clock's rate is the host's speed over the reference speed, which
    # stays within a small factor of 1 on any host that runs the benchmark
    assert 0.05 < readings[-1] / 0.2 < 20


def test_stop_restores_handler_and_timer():
    before = signal.getsignal(signal.SIGALRM)
    clock = HostClock().start()
    assert signal.getsignal(signal.SIGALRM) != before
    clock.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tick_weights_wall_time_by_speed(monkeypatch):
    """Four wall seconds with the loop at twice its reference time count as
    two reference seconds, and the tick's own time does not count."""
    ref = hostclock.REF_LOOP_S
    # handler entry, loop start, loop end, handler exit
    readings = iter([104.0, 104.0, 104.0 + 2 * ref, 104.5])
    fake_time = types.SimpleNamespace(perf_counter=lambda: next(readings))
    monkeypatch.setattr(hostclock, "time", fake_time)
    monkeypatch.setattr(hostclock, "reference_loop", lambda: 0)
    clock = HostClock()
    clock.loops = [2 * ref, 2 * ref]
    clock.speed, clock.mark, clock.work = 0.5, 100.0, 1.0
    clock._tick(signal.SIGALRM, None)
    assert clock.work == pytest.approx(3.0)
    assert clock.speed == pytest.approx(0.5)
    assert clock.mark == 104.5
