"""The machine's speed during a run, from a fixed piece of work timed
between the ops.

The benchmark runs on a few cores of a shared host whose speed drifts with
the code unchanged: the same work, timed back to back, takes up to twice as
long from one second to the next, and its mean over 30 s windows moves by
up to 30%.  So the benchmark times a fixed pure-Python kernel of the kind of
work lierep does (Fraction arithmetic, dict updates, small tuples) between
its ops, and reports each end-to-end time as it reads at the kernel's
reference speed:

    reported time = measured time / slowdown,
    slowdown      = mean reference time during the ops / its reference.

In process the reference work is one run of the kernel.  Between cli-cold
queries it is a fresh interpreter that runs the kernel CHILD_KERNELS times
(`python3 speed.py`), because a query's cost is mostly interpreter start
and import, which the kernel in a warm process does not track.

The reference work does not touch lierep, so a change to lierep moves the
reported times and leaves the slowdown alone.  The measured times and the
slowdown are kept in the run's metadata.
"""

import gc
import math
import subprocess
import sys
import time
from fractions import Fraction

# The kernel's time on the 2-core reference machine at its usual speed.
REFERENCE_S = 1.5e-3
# A fresh interpreter running the kernel this many times, and its time
# there.
CHILD_KERNELS = 20
CHILD_REFERENCE_S = 0.11
# One sample is taken per this much op time.
EVERY_S = 0.05
# At most this many kernel samples follow one op, however long it took.
MAX_BURST = 10


def kernel():
    acc = Fraction(0)
    counts = {}
    for i in range(1, 400):
        acc += Fraction(i % 97, i % 13 + 1)
        key = (i % 101, i % 7)
        counts[key] = counts.get(key, 0) + i
    return acc, counts


def sample():
    """Seconds one run of the kernel takes.  The cycle collector is paused,
    so a collection that lierep's heap has made due does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def child_sample(env):
    """Seconds a fresh interpreter takes to start and run the kernel
    CHILD_KERNELS times."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t0


class SpeedProbe:
    """Reference work sampled between ops: after every EVERY_S of op time,
    each sample weighed by the op time it stands for."""

    def __init__(self, sample_fn, reference_s, max_burst):
        self.sample_fn = sample_fn
        self.reference_s = reference_s
        self.max_burst = max_burst
        self.pending = 0.0
        self.weighted = 0.0
        self.weight = 0.0
        self.samples = 0
        # wall time spent sampling, which is no op's
        self.spent = 0.0

    def after_op(self, seconds):
        self.pending += seconds
        if self.pending >= EVERY_S:
            self.take(self.pending)

    def take(self, weight):
        t0 = time.perf_counter()
        count = min(self.max_burst, math.ceil(weight / EVERY_S))
        for _ in range(count):
            self.weighted += weight / count * self.sample_fn()
        self.weight += weight
        self.samples += count
        self.pending = 0.0
        self.spent += time.perf_counter() - t0

    def finish(self):
        if self.pending > 0:
            self.take(self.pending)

    def slowdown(self):
        if not self.weight:
            raise ValueError("no speed samples")
        return self.weighted / self.weight / self.reference_s


def in_process_probe():
    return SpeedProbe(sample, REFERENCE_S, MAX_BURST)


def child_probe(env):
    """One fresh interpreter after each op, for ops that are processes."""
    return SpeedProbe(lambda: child_sample(env), CHILD_REFERENCE_S, 1)


if __name__ == "__main__":
    for _ in range(CHILD_KERNELS):
        kernel()
