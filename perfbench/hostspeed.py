"""The host's speed, sampled in the process that does the work, while
it does it.

The benchmark's 2-core host drifts in speed with its other tenants, and
each core on its own: a fixed piece of work takes up to 1.7 times as long
from one tenth of a second to the next, and CPU time drifts with it. A
sampler in the measured process therefore runs a small fixed kernel every
PERIOD_S (on SIGALRM, between the program's bytecodes) and records how
long the kernel took and how long the process ran since the previous
sample. `scale` turns such samples into the factor by which raw seconds
become host-normalised seconds: the seconds the same work takes on a host
on which the kernel takes KERNEL_REF_S.

The kernel steals about 4% of the process's time, the same share on
every commit, so it leaves relative changes of the program's times as
they are.
"""
from __future__ import annotations

import os
import signal
import time

PERIOD_S = 0.01
KERNEL_REF_S = 0.00045  # the kernel on a quiet 2-core host


def kernel() -> None:
    """Interpreter work of the kind dflsim's hot paths do between numpy
    calls: dict updates, list appends, string formatting and a sort."""
    counts: dict[int, int] = {}
    items = []
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
        items.append((i, str(i)))
    items.sort(key=lambda item: item[1])


class Sampler:
    """Samples (end, interval, kernel seconds) while running in a process."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._pid = None
        self._last = 0.0

    @property
    def running(self) -> bool:
        # a forked child inherits the attribute, not the interval timer
        return self._pid == os.getpid()

    def start(self) -> None:
        self._pid = os.getpid()
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> list[tuple[float, float, float]]:
        """Stops sampling; returns the samples and forgets them."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._pid = None
        samples, self.samples = self.samples, []
        return samples

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, t0 - self._last, t1 - t0))
        self._last = t1


SAMPLER = Sampler()


def scale(samples) -> float:
    """Raw to host-normalised seconds over the time the samples cover:
    KERNEL_REF_S over the kernel's time, weighted by the interval each
    sample closes."""
    ran = sum(interval for _, interval, _ in samples)
    return (KERNEL_REF_S * sum(interval / took for _, interval, took
                               in samples) / ran)
