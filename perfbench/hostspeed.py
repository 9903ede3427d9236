"""Host speed, sampled while a workload runs, and host times rescaled by it.

The benchmark runs on a share of a host whose co-tenants slow it by up
to half, for a second at a time or for minutes, and CPU time tracks wall
time, so neither clock can tell a slower program from a slower host.  A
``Sampler`` therefore times a fixed piece of interpreted work (the
calibration) ten times a second, from a timer signal, while the workload
runs, and turns host seconds into seconds at a fixed reference speed:
the speed at which one calibration takes ``REFERENCE_CAL_S``.

``REFERENCE_CAL_S`` is what one calibration took on the 2-vCPU x86_64
host the benchmark was written on, at that host's fast speed.  It only
sets the scale, so that the rescaled times read as seconds; changing it
rescales every result, so it stays as it is.
"""

from __future__ import annotations

import bisect
import signal
import time

REFERENCE_CAL_S = 0.0017
INTERVAL_S = 0.1
CAL_ROUNDS = 4000


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _step(p: _Point, i: int) -> int:
    return (p.x * 31 + i) & 0xFFFF


def calibration() -> int:
    """Fixed interpreted work: calls, slot access, small tuples, a dict."""
    table: dict = {}
    acc = 0
    for i in range(CAL_ROUNDS):
        acc = _step(_Point(i, acc), i)
        table[acc & 1023] = (i, acc)
    return acc


class Sampler:
    """Times one calibration every ``INTERVAL_S`` from SIGALRM.

    The calibrations run in the sampled thread itself, between two of
    its bytecodes, so each one lies wholly inside or wholly outside any
    interval the workload times.  ``stop`` builds a clock that runs at
    the reference speed: it stands still during calibrations, and
    between two of them it runs at ``REFERENCE_CAL_S`` over their mean
    time.  Lengths on it add up, so a span's self time (its length less
    its children's) stays what it was on the host clock, rescaled.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.cal_s: list[float] = []
        self._ends: list[float] = []
        self._clock: list[float] = []  # the reference clock at each start
        self._rate: list[float] = []  # its rate from the end of each calibration

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calibration()
        self.starts.append(t0)
        self.cal_s.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)
        cal = self.cal_s
        self._ends = [t + c for t, c in zip(self.starts, cal)]
        self._rate = [2.0 * REFERENCE_CAL_S / (a + b) for a, b in zip(cal, cal[1:])]
        self._rate.append(self._rate[-1])
        self._clock = [0.0]
        for i in range(1, len(cal)):
            gap = self.starts[i] - self._ends[i - 1]
            self._clock.append(self._clock[-1] + gap * self._rate[i - 1])

    def clock(self, t: float) -> float:
        """The reference clock at host time ``t`` (``perf_counter``)."""
        i = bisect.bisect_right(self.starts, t) - 1
        if i < 0:
            raise ValueError("time before the sampler started")
        return self._clock[i] + max(t - self._ends[i], 0.0) * self._rate[i]

    def reference_s(self, t0: float, t1: float) -> float:
        """Seconds at the reference speed between host times t0 and t1."""
        return self.clock(t1) - self.clock(t0)
