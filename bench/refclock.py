"""Host speed, sampled through a run by a fixed reference kernel.

The 2-core shared host the benchmark was built on runs the same Python code
up to a third slower for stretches of seconds to minutes, in CPU time as
much as in wall time.  Runs of identical work a few minutes apart then read
very different times, and no amount of repetition inside one run removes
a slow stretch that covers all of it.

So while a run measures, a real-time interval timer interrupts the process
every ``PERIOD_S`` seconds, and the signal handler times a fixed kernel
that does feasik's kind of work: interpreted float arithmetic and small
objects, small numpy vectors, one matrix-vector product.  Python runs the
handler in the main thread between two bytecodes, so no thread or process
competes with the code being measured, and each sample lies either wholly
inside an operation or wholly outside it.  An operation's time is its wall
time less the samples taken inside it, scaled by ``NOMINAL_S`` over the
mean kernel time of those samples and of the one just before and the one
just after it: the figures read as seconds on the host at its nominal
speed.  The kernel is the benchmark's own code and does not use feasik, so
any change of feasik's speed shows in full.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time

import numpy as np

# Median kernel time on the host the baseline was recorded on (2 cores of
# an Intel Xeon, Python 3.11.7, numpy 2.4.6, one BLAS thread).
NOMINAL_S = 1.15e-3
PERIOD_S = 0.02

_rng = np.random.default_rng(20190514)
_M = _rng.standard_normal((400, 100))
_ROWS = [_M[i].copy() for i in range(16)]


class _Rec:
    __slots__ = ("i", "value", "norm")

    def __init__(self, i, value, norm):
        self.i, self.value, self.norm = i, value, norm


def kernel() -> float:
    """A fixed mix of interpreted and small-array work; returns a checksum."""
    x = np.full(100, 0.1)
    recs = []
    acc = 0.0
    for k in range(150):
        a = _ROWS[k % 16]
        v = float(a @ x) - 0.5
        n = float(np.linalg.norm(a))
        recs.append(_Rec(k, v, n))
        if v > 0.0:
            x = x - (v / (n * n)) * a
        acc += sum(r.value * 1e-3 for r in recs[-8:]) + (k % 7) * 0.25
    scores = _M @ x
    return acc + float(scores.max()) + len(tuple(r.i for r in recs))


class RefClock:
    """Kernel samples taken through a run, and the nominal seconds they
    give an interval of it."""

    def __init__(self):
        self.start = []      # perf_counter() at each sample's start
        self.end = []        # ... and at its end
        self.kernel = []     # the kernel's time in each sample
        self._busy = [0.0]   # prefix sums of end - start
        self._ksum = [0.0]   # prefix sums of kernel

    @property
    def busy_s(self) -> float:
        return self._busy[-1]

    def tick(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.start.append(t0)
        self.end.append(t1)
        self.kernel.append(t1 - t0)
        self._busy.append(self._busy[-1] + (t1 - t0))
        self._ksum.append(self._ksum[-1] + (t1 - t0))

    @contextlib.contextmanager
    def sampling(self):
        """Take a sample now, every ``PERIOD_S`` seconds while inside, and
        one on the way out."""
        old = signal.signal(signal.SIGALRM, self.tick)
        self.tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
            self.tick()

    def nominal(self, t0: float, t1: float) -> float:
        """The seconds from ``t0`` to ``t1``, less the samples taken in
        between, at nominal host speed."""
        first = bisect.bisect_left(self.start, t0)  # first sample inside
        stop = bisect.bisect_right(self.end, t1)    # first one after
        busy = self._busy[stop] - self._busy[first]
        lo, hi = max(first - 1, 0), min(stop + 1, len(self.kernel))
        mean = (self._ksum[hi] - self._ksum[lo]) / (hi - lo)
        return (t1 - t0 - busy) * NOMINAL_S / mean
