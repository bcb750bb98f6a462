"""Tests of the speed gauges that end-to-end times are divided by.

    python3 -m pytest perfbench
"""

import signal
import time

import reference


def test_timer_probe_samples_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with reference.TimerProbe() as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(probe.wall) >= 5
    assert len(probe.wall) == len(probe.cpu)
    assert all(w > 0 for w in probe.wall)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_timer_probe_stops_when_the_block_raises():
    before = signal.getsignal(signal.SIGALRM)
    try:
        with reference.TimerProbe():
            raise ValueError
    except ValueError:
        pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_reference_run_is_timed():
    wall, cpu = reference.measure()
    assert wall > 0 and cpu > 0
