"""Host speed reference for the end-to-end timings.

On a shared machine the processor's speed drifts as other tenants load it.
On a 2-vCPU Intel Xeon VM, a fixed pure-Python loop took from 15 to 23 ms,
in spells that lasted from under a second to minutes, so two runs of the
same code could differ by a third.  A run therefore interleaves a fixed
reference kernel with its ops, and scales each op's wall time by the
kernel's time around it: the scaled time is what the op would take on a
machine on which the kernel takes REF_S.  The kernel runs no code of
`coxtoric`, so a change to the program moves scaled times as it moves wall
times.
"""

import bisect
import gc
import statistics
import time

REF_S = 1e-3     # scaled times are those of a machine where kernel() takes 1 ms
EVERY_S = 0.025  # a run probes before an op once this long has passed since the last probe
_MOD = 7 ** 300


def kernel():
    """Fixed work of the kinds `coxtoric` spends its time on: small-integer
    arithmetic, big-integer products and dict stores.  About 1 ms on the VM
    above."""
    acc, big, d = 0, 3 ** 200, {}
    for i in range(1, 1500):
        acc = (acc * 31 + i * i) % 1000003
        big = big * (i | 1) % _MOD
        d[i & 63] = acc
    return acc + big


def probe():
    """(end, duration) of one kernel run, in perf_counter seconds.  The
    collector is off during it, so a collection that the program's
    allocations have made due is not charged to the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return t1, t1 - t0


def kernel_time(samples=6):
    """Median kernel time over `samples` probes, after one warm-up run."""
    probe()
    return statistics.median(probe()[1] for _ in range(samples))


class Probes:
    """Kernel times taken through a run, in time order."""

    def __init__(self):
        probe()                      # warm-up: the first run of a process is slower
        self.ends, self.times = [], []
        self.take()

    def take(self):
        end, dt = probe()
        self.ends.append(end)
        self.times.append(dt)

    def due(self):
        return time.perf_counter() - self.ends[-1] >= EVERY_S

    def scale(self, start, dt):
        """`dt` seconds of wall time that began at `start`, at reference speed:
        scaled by the mean kernel time of the last probe before it and the
        first probe after it."""
        i = max(bisect.bisect_right(self.ends, start) - 1, 0)
        j = min(bisect.bisect_left(self.ends, start + dt), len(self.ends) - 1)
        return dt * REF_S / ((self.times[i] + self.times[j]) / 2)
