"""A reference loop timed while an invocation runs, to factor out host speed.

The benchmark runs on a few cores of a shared host. Neighbours on the same
physical cores slow every instruction stream by up to ~1.5x, in spells that
last from seconds to minutes, and neither wall time nor process CPU time
can tell that slowdown from the program's own cost.

SpeedProbe interrupts an invocation every INTERVAL_S (SIGALRM, handled in
the main thread between bytecodes, so no thread or process is added) and
times one pass of a fixed reference loop that mixes the kinds of work the
program does: interpreter arithmetic, Python calls, math-module floats and
small numpy operations. The loop's own time is taken out of the
invocation's wall time, and the rest is divided by the loop's mean time
over the same interval. That ratio, the invocation's time in reference-loop
units, follows the program's cost and not the host's speed. Over ten 35 s
runs per workload on a shared 2-vCPU Intel Xeon host, the quartile spread
of its median was 2-7% of the median, where wall time's was 10-23%.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
_A = np.eye(4) * 0.5
_V = np.ones(4)


def _add(a, b):
    return a + b


def reference_loop():
    """One pass of fixed work, ~0.4 ms on one vCPU of a shared Intel Xeon host."""
    s = 0
    for i in range(2000):
        s += i * i % 7
    for i in range(1000):
        s = _add(s, i)
    x = 0.5
    for _ in range(1000):
        x = math.sin(x) * 0.5 + 0.25 * x
    w = _V
    for _ in range(60):
        w = _A @ w + _V * 1e-3
    return s, x, w


class SpeedProbe:
    """Times reference_loop() before, during and after one timed call.

    After the block, inside_s is the loop time spent inside the call and
    loop_s the loop's mean time; (wall - inside_s) / loop_s is the call's
    time in reference-loop units.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # loop time spent inside the timed call, to take out of its wall time
        self.inside_s = sum(self.samples[1:])
        self._sample()
        self.loop_s = statistics.fmean(self.samples)
        return False
