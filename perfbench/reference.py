"""Gauges of how fast the machine is while the benchmark runs.

The benchmark's end-to-end times are divided by the time of a fixed
reference computation measured alongside them in the same process. On a
shared virtual machine other tenants slow every process by up to 2x, in
stretches of seconds to minutes; such a slowdown scales the workload and
the reference alike, so the ratio stays put while the raw seconds do not.

Two gauges, both importing nothing from oxgrid, so that no change to the
program can change them:

- :func:`measure` times :func:`reference_work`, about 40 ms of interpreted
  Python and small numpy calls, the program's own mix. A workload whose
  units last about a second runs it before the first unit and after each.
- :class:`TimerProbe` times a 0.1 ms probe from a timer signal every 10 ms
  during a unit or a set-up, for work too long for two measurements at its
  ends to tell how fast the machine was in between, or run in another
  process. The signal handler runs in the
  main thread, between bytecodes, so the probe suits only units that run
  on the main thread: on a thread pool it would also time the wait for
  the interpreter lock.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PY_ITERATIONS = 60_000
NUMPY_CALLS = 2_500
PROBE_ITERATIONS = 1_500
PROBE_INTERVAL_S = 0.01
# ``setup_s`` must be in seconds, so the set-up's time over the probe's is
# scaled back by this constant: about the probe's time on an undisturbed
# vCPU of the 2-vCPU Xeon virtual machine the benchmark was tuned on. It
# only sets the scale; comparisons between commits do not depend on it.
PROBE_NOMINAL_S = 1e-4


def reference_work() -> float:
    acc = 0.0
    table: dict[int, float] = {}
    kept = []
    for i in range(PY_ITERATIONS):
        acc += math.sqrt(i * 0.5 + 1.0)
        table[i & 1023] = acc
        if i & 7 == 0:
            kept.append(i)
    kept.sort(reverse=True)
    rng = np.random.default_rng(7)
    total = 0
    for _ in range(NUMPY_CALLS):
        draws = rng.poisson(2.0, 30)
        total += int(np.bincount(draws, minlength=8)[:8].sum())
    return acc + total + kept[0]


def measure() -> tuple[float, float]:
    """(wall seconds, CPU seconds) of one run of :func:`reference_work`."""
    w0, c0 = time.perf_counter(), time.process_time()
    reference_work()
    return time.perf_counter() - w0, time.process_time() - c0


def probe_work() -> int:
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i
    return acc


class TimerProbe:
    """Within ``with``, times :func:`probe_work` every PROBE_INTERVAL_S.

    ``wall`` and ``cpu`` hold the probe durations; the caller subtracts
    their sums from the unit's time, since the probe ran inside it.
    """

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def sample(self, signum=None, frame=None) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        probe_work()
        self.wall.append(time.perf_counter() - w0)
        self.cpu.append(time.process_time() - c0)

    def __enter__(self) -> "TimerProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
