"""A fixed probe of how fast the machine runs right now, and timings scaled by it.

The benchmark shares a few cores of a host with other work, and the speed
it gets is not steady: the same seed, run again and again in one process,
takes from 1.2 to 2.3 s, switching between a fast and a slow speed every
few seconds. CPU time follows wall time, so the cores run slower; the
process does not just wait for one.

So while a timed call runs, an interval timer interrupts it every
``PERIOD_S`` to run a fixed kernel once, and each stretch of the call
between two runs of the kernel counts as its length times ``REFERENCE_S``
over the kernel's time at its end. A scaled time is the time the call would
take on a machine where the kernel takes ``REFERENCE_S``. The kernel mixes
what the package spends its time on (small dense linear algebra and
interpreted loops) and calls nothing in the package, so
a change to the package leaves it as it is.
"""

from __future__ import annotations

import os
import signal
from time import perf_counter, process_time

import numpy as np

# the kernel's wall time at the reference speed
REFERENCE_S = 0.0007
PERIOD_S = 0.02
ROUNDS = 2
LOOP = 3000

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((500, 50))
_GRAM = _X.T @ _X + 50.0 * np.eye(50)
_Y = _RNG.standard_normal(50)


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children so far.

    ``process_time`` reads the process at full resolution; ``os.times``
    counts in clock ticks, too coarse for one run of the kernel, and is used
    only for the children.
    """
    t = os.times()
    return process_time() + t.children_user + t.children_system


def kernel() -> float:
    """The fixed work whose time measures the machine's speed.

    About half of it is small numpy calls and half a plain interpreted
    loop. The cores' slow speed slows the numpy half more than it slows the
    package, and the loop less. Scaled by the numpy half alone, a learned
    run that the host slowed by a third read about 5% faster than one it
    did not slow; by the mix, within about 1%.
    """
    acc = 0.0
    for _ in range(ROUNDS):
        chol = np.linalg.cholesky(_GRAM)
        scores = _X @ np.linalg.solve(chol, _Y)
        for i in range(100):
            acc += float(scores[i]) * 0.5
        for g in range(25):
            acc += float(np.linalg.norm(_X[:10, g]))
    count = 0
    for i in range(LOOP):
        count += (i * i) % 7
    return acc + count


class Stopwatch:
    """Wall and CPU time of timed calls, raw and scaled to the reference speed.

    Neither counts the time the kernel itself takes. Creating one installs
    its SIGALRM handler; the timer runs only inside a call.
    """

    def __init__(self) -> None:
        self.wall_s = self.cpu_s = 0.0
        self.wall_ref_s = self.cpu_ref_s = 0.0
        self.calls = self.probes = 0
        self._marks: list[tuple[float, float, float, float]] = []
        signal.signal(signal.SIGALRM, self._probe)

    def _probe(self, *_) -> None:
        wall0, cpu0 = perf_counter(), cpu_seconds()
        kernel()
        self._marks.append((wall0, perf_counter(), cpu0, cpu_seconds()))

    def __call__(self, fn, *args):
        """Call ``fn(*args)``, add its time, and return its result."""
        self._marks = []
        wall_end, cpu_end = perf_counter(), cpu_seconds()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._probe()  # closes the last stretch
        for wall0, wall1, cpu0, cpu1 in self._marks:
            wall, cpu = wall0 - wall_end, cpu0 - cpu_end
            scale = REFERENCE_S / (wall1 - wall0)
            self.wall_s += wall
            self.cpu_s += cpu
            self.wall_ref_s += wall * scale
            self.cpu_ref_s += cpu * scale
            wall_end, cpu_end = wall1, cpu1
        self.calls += 1
        self.probes += len(self._marks)
        return result
