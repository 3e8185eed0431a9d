"""Machine speed, sampled while the measured code runs.

On a shared host one core's speed changes by up to 2x within a second as
other tenants come and go, so a kernel timed before or after a chain
repeat says little about the speed during it. Instead, a ``Sampler`` runs
a fixed kernel on an interval timer *inside* the measured code: SIGALRM
every TICK_S interrupts the program between two bytecodes, the handler
runs the kernel twice and times the second run, and the program resumes.
The first run refills the caches the program's own work evicted, so the
timed run does not depend on what the program was doing. The kernel's mean
time over a repeat is the speed of the core during that repeat, and
``Sampler.at_reference_speed`` converts the repeat's own time (its wall
time minus the handler's) to what it would have been at REFERENCE_S per
kernel.

The kernel is this file's code, so no change to the program moves it. It
is made of the same kind of work as the program's hot loops: 3x3 numpy
products and Rodrigues rotations in a Python loop. Python runs the handler
in the main thread between bytecodes and restarts interrupted system
calls, and the kernel touches none of the program's state, so the program
computes exactly what it would without the sampler.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

TICK_S = 0.02
# Kernel time on the reference machine speed: the median on 2 vCPUs of an
# x86_64 cloud host at its usual (not boosted) speed, Python 3.11, numpy 2.4.
REFERENCE_S = 5e-4

_EYE = np.eye(3)
_AXIS = np.array([0.3, 0.5, 0.8]) / np.linalg.norm([0.3, 0.5, 0.8])
_SKEW = np.array([[0.0, -_AXIS[2], _AXIS[1]], [_AXIS[2], 0.0, -_AXIS[0]], [-_AXIS[1], _AXIS[0], 0.0]])


def kernel():
    """Seconds for a fixed chain of 40 rotation compositions."""
    start = time.perf_counter()
    rot, pos = _EYE, np.zeros(3)
    for i in range(40):
        theta = 0.1 * i
        rot = rot @ (_EYE + np.sin(theta) * _SKEW + (1.0 - np.cos(theta)) * (_SKEW @ _SKEW))
        pos = pos + rot @ _AXIS
    return time.perf_counter() - start


class Sampler:
    """Times the kernel every TICK_S while the ``with`` block runs."""

    def __init__(self):
        self.samples = []  # timed kernel runs
        self.spent_s = 0.0  # all time in the handler
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append(kernel())
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        self.samples, self.spent_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def at_reference_speed(self, wall):
        """Seconds of the block at the reference speed, given its wall time.

        The handler's time is not the measured code's and is taken out
        first. A block shorter than one tick gets one timed run after it.
        """
        if not self.samples:
            kernel()
            self.samples.append(kernel())
        return (wall - self.spent_s) * REFERENCE_S / statistics.mean(self.samples)
