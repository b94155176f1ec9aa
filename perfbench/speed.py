"""Times at a reference CPU speed.

The shared virtual CPUs this benchmark was written on change speed by up
to a third, within seconds as well as over minutes, the same for every
process on them.  Two runs of identical code minutes apart then differ
by more than any bound worth setting.  So the benchmark times a fixed
pure-Python kernel (`speed_kernel`) alongside the ops and scales each
op's time to the speed at which the kernel takes REFERENCE_KERNEL_S:

    reference seconds = op seconds * REFERENCE_KERNEL_S / kernel seconds

where `kernel seconds` is the mean kernel time over the op: a few
timings just before and just after it, and one every PERIOD_S while it
runs, from a SIGALRM handler (one process, no threads).  The handler's
own time is taken out of the op's time.  The kernel does not touch
coxkit, so a change to coxkit moves the reference times exactly as it
moves the wall clock, while a slow spell of the machine slows the kernel
as well and cancels out.
"""
from __future__ import annotations

import random
import signal
import statistics
import time

REFERENCE_KERNEL_S = 0.001  # about its time on a 2.0 GHz Xeon vCPU
PERIOD_S = 0.1
MARK_REPEATS = 5


def _cycle_table(size):
    """Tuple keys and a dict that maps each key to the index of the next
    key on one cycle through all of them (Sattolo's shuffle)."""
    order = list(range(size))
    rng = random.Random(0)
    for i in range(size - 1, 0, -1):
        j = rng.randrange(i)
        order[i], order[j] = order[j], order[i]
    keys = [(i, i ^ 5) for i in range(size)]
    return keys, {key: order[i] for i, key in enumerate(keys)}


_KEYS, _NEXT = _cycle_table(256)


def speed_kernel():
    """Walks the cycle 48 times: tuple hashing and dict lookups, the kind
    of work coxkit's inner loops do.  The table is about 30 KB, small
    enough that the kernel's time does not depend on what coxkit left in
    the caches: a table of 8192 keys ran three times slower inside an op
    than between ops.  It allocates nothing, so it never starts a
    garbage collection over the live coxkit objects."""
    x = 0
    for _ in range(48 * len(_KEYS)):
        x = _NEXT[_KEYS[x]]
    return x


def _kernel_seconds():
    start = time.perf_counter()
    speed_kernel()
    return time.perf_counter() - start


def mark():
    """The median of a few kernel timings, now."""
    return statistics.median(_kernel_seconds() for _ in range(MARK_REPEATS))


def scaled(seconds, kernels):
    """`seconds` at reference speed, given kernel times taken over them."""
    return seconds * REFERENCE_KERNEL_S / statistics.fmean(kernels)


class Probe:
    """While entered, times the kernel every PERIOD_S of wall clock."""

    def __init__(self):
        self.samples = []  # (start, seconds) of each timed kernel run
        self._old = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        speed_kernel()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def since(self, index, start, end):
        """Kernel times of the ticks from samples[index:] that began
        between start and end."""
        return [s for t, s in self.samples[index:] if start <= t <= end]
