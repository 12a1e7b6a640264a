"""Reference kernel that measures how fast the machine is running right now.

On a shared 2-core box the host's speed swings by up to 1.7x within minutes,
and the swings are shared by all single-threaded NumPy code. `SpeedProbe`
interrupts the timed loop every INTERVAL_S seconds (SIGALRM) and times a
short kernel doing fixed work with the operations homoglab's descent spends
its time on (small-array arithmetic, sin, axis sums). Its `clock` leaves the
kernel's own time out, and `speed()` rescales to REF_S over the kernel's
mean time, so a run's seconds read as on a machine running at the nominal
speed throughout. The kernel imports nothing from homoglab, so no change to
the program can move it.
"""

import signal
import time

import numpy as np

# Nominal kernel time: about the median on a 2-core Xeon (Sapphire Rapids)
# KVM guest with NumPy 2.4.
REF_S = 0.1
INTERVAL_S = 2.0
_STEPS = 300


def kernel() -> float:
    """Seconds taken by one pass of fixed work."""
    x = np.linspace(0.0, 1.0, 6 * 200 * 4).reshape(6, 200, 4, 1)
    g = np.zeros((6, 201, 1))
    start = time.perf_counter()
    for _ in range(_STEPS):
        v = np.sum(np.sin(np.pi * x) ** 2, axis=-1)
        d = np.pi * np.sin(2 * np.pi * x)
        s = np.sum(np.sum(v, axis=2) * 0.01, axis=1)
        g[:, :-1] += np.sum(d * 0.3, axis=2)
        g[:, 1:] -= np.sum(d * 0.2, axis=2)
        x = x + 1e-9 * s[:, None, None, None]
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the kernel on a timer while active; use as a context manager."""

    def __init__(self):
        self.samples = []
        self._paused = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel())
        self._paused += time.perf_counter() - start

    def clock(self) -> float:
        """perf_counter minus the time spent in the kernel so far."""
        return time.perf_counter() - self._paused

    def speed(self) -> float:
        """Factor that turns measured seconds into nominal-speed seconds."""
        return REF_S / float(np.mean(self.samples))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        return False
