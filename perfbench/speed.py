"""Machine-speed reference for the benchmark's job timings.

The benchmark runs on small shared virtual machines whose speed moves in
phases: on a 2-CPU one, a fixed loop ran up to 1.8 times slower in some
stretches of a few seconds than in others, and process CPU time moved with
wall time. A fixed reference loop, timed before, during and after each job,
measures the speed of the machine at those moments. Each job's own wall
time (without the loops) is then scaled to the speed at which the loop
takes ``REFERENCE_S``:

    scaled = own * REFERENCE_S / median(loops from the last one before
                                        the job to the first one after it)

The loop is benchmark code and never calls fspectra, so a change to the
library moves scaled times as it moves raw ones, unless the library keeps
other threads or processes busy while the loop runs. On that machine the
windowed medians of a fixed fspectra job spread 0.48 (IQR / median) raw
and 0.05 scaled. The loop mixes interpreter work (tuples, sorting, dicts)
with small numpy products, as fspectra does.
"""

import gc
import signal
import statistics
import time

import numpy as np

# Seconds the reference loop takes at the reference speed; about its time
# in the fast phases of the machine the bounds were set on.
REFERENCE_S = 0.012

# With a timer, the loop runs again after this much wall time.
STRETCH_S = 0.25

_A = np.ones((12, 12)) - np.eye(12)


def reference_loop():
    """Run the fixed reference loop once; returns its wall time in seconds.

    The cyclic garbage collector is off while it runs: a collection would
    walk the program's heap, and the loop must not depend on it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts = {}
        for i in range(12000):
            key = tuple(sorted(((i * 7) % 13, (i * 11) % 17, i % 5)))
            counts[key] = counts.get(key, 0) + 1
        x = np.ones(12)
        for _ in range(1500):
            y = _A @ x
            x = y / np.linalg.norm(y)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Timings of the reference loop, taken on request and, with
    ``timer=True``, from SIGALRM every ``STRETCH_S`` of wall time. The
    handler runs in the main thread between bytecodes, so a long job is
    sampled while it runs. ``spent`` is all the time the loops took, so a
    job's own time is its wall time minus the growth of ``spent``.
    """

    def __init__(self, timer=False):
        self.timer = timer
        self.loops = []
        self.spent = 0.0
        t0 = time.perf_counter()
        reference_loop()  # the first run in a process pays numpy's lazy set-up
        self.spent += time.perf_counter() - t0
        if timer:
            signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()

    def sample(self):
        """Time the loop now; re-arm the timer after it."""
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t = reference_loop()
        self.loops.append(t)
        self.spent += t
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, STRETCH_S)

    def _on_alarm(self, signum, frame):
        self.sample()

    def stop(self):
        if self.timer:
            # First, so that a handler still pending does not re-arm the timer.
            self.timer = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """(loops taken so far, time spent in them)."""
        return len(self.loops), self.spent


def scale(own, loops):
    """``own`` seconds at the reference speed, given the loop timings from
    the last one before the job to the first one after it. The median keeps
    one loop slowed by something else on the machine from moving it."""
    return own * REFERENCE_S / statistics.median(loops)
