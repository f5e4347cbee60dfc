"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's machine is a few vCPUs of a shared host.  Each vCPU's speed
swings by up to 1.6x over milliseconds to minutes as other tenants come and
go, independently of the other vCPU, and equally for wall time and for the
process's CPU time.  The kernel below does the same kind of work as
fricke's transport (complex theta-like sums in Python, 2x2 complex matrix
products in numpy) but is the benchmark's own code, so it never changes
with the program.  Timing it next to and during each task gives the host's
speed over that task: the task's time times NOMINAL_S over the kernel's
mean time is the task's time at a fixed reference speed.

The kernel allocates no object that the cyclic garbage collector tracks,
so running it never triggers a collection of the program's garbage.
"""

from __future__ import annotations

import cmath
import signal
import time

import numpy as np

# The kernel's time on the benchmark's machine (2 vCPUs, Python 3.11,
# numpy 2.4) when the host is quiet; normalised times are quoted at this speed.
NOMINAL_S = 6.0e-4

BOUNDARY_RUNS = 6  # kernel runs per measurement between tasks
PERIOD_S = 0.05  # interval of the measurements taken during a task

_Q = cmath.exp(-0.8 * cmath.pi)


def kernel():
    """50 Heun steps of a 2x2 linear system with a 13-term theta coefficient."""
    m = np.eye(2, dtype=complex)
    a = np.zeros((2, 2), dtype=complex)
    a[1, 0] = 1.0
    h = 1e-3
    for k in range(50):
        t = k * h
        s = 0j
        for n in range(-6, 7):
            s += _Q ** (n * n) * cmath.exp(2j * n * t)
        a[0, 1] = s
        a[1, 1] = -s
        k1 = a @ m
        k2 = a @ (m + 0.5 * h * k1)
        m = m + 0.5 * h * (k1 + k2)
    return m


def timed() -> float:
    """The kernel's mean time over BOUNDARY_RUNS runs."""
    t0 = time.perf_counter()
    for _ in range(BOUNDARY_RUNS):
        kernel()
    return (time.perf_counter() - t0) / BOUNDARY_RUNS


class Sampler:
    """Times one kernel run every PERIOD_S of wall time while started.

    The runs happen in a SIGALRM handler, between two bytecodes of whatever
    the main thread is executing.  `samples` collects their times and
    `spent_s` the whole time spent in the handler, which the caller takes
    off the time of the task that was interrupted.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent_s += time.perf_counter() - t0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
