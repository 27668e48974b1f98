"""Machine-speed probe, to express pass times in reference seconds.

On a small shared machine the speed of a core drifts by 20-40 % over
seconds and minutes, so raw pass times from two runs of the same code
differ by more than a regression bound can absorb.  ``SpeedProbe`` runs
one of a few fixed snippets every ``PERIOD_S`` of wall time, taking turns,
from a SIGALRM handler that runs between the workload's own bytecodes, so
its samples see the same core at the same moments as the work being
timed.  The snippets stand for kinds of work: ``interpreter`` (small
integers and a dict), ``bigint`` (big-integer arithmetic) and ``objects``
(dunder arithmetic that allocates small objects, as ``Fraction`` and
``Cyclotomic`` do).  The drift does not slow every kind alike, so each
span is probed with the kinds its work is made of.  A span's time is then
reported as

    (elapsed - time spent in the probe) / slowdown

where the slowdown is the geometric mean, over the probed kinds, of the
snippet's mean sample divided by its time on the reference core
(``REFERENCE_S``).  The snippets do not touch asmice, so a change to the
program moves the reported time exactly as it moves the raw time.  The
mean, not the median, of the samples is used: the samples are spread
evenly in time, so their mean is the span's average speed.

Usage::

    with SpeedProbe(("interpreter", "bigint")) as probe:
        t0 = time.perf_counter()
        work()
        elapsed = time.perf_counter() - t0
    seconds = probe.reference_s(elapsed)
"""

from __future__ import annotations

import gc
import math
import signal
import time

#: wall time between two probe samples
PERIOD_S = 0.01

_BIG = 7 ** 3000


def _interpreter_snippet():
    x = 0
    d = {}
    for i in range(300):
        x += i * i % 7
        d[i & 63] = x
    return x


def _bigint_snippet():
    x = 0
    d = {}
    for i in range(15):
        x += _BIG * (i + 3) % 1000003
        d[i] = x
    return x


class _Pair:
    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = re, im

    def __mul__(self, other):
        return _Pair(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re)


def _objects_snippet():
    x, y = _Pair(1, 0), _Pair(3, 5)
    for _ in range(40):
        x = x * y
        x = _Pair(x.re % 1009, x.im % 1013)
    return x


SNIPPETS = {"interpreter": _interpreter_snippet, "bigint": _bigint_snippet,
            "objects": _objects_snippet}

#: time of each snippet on the reference core; they only set the scale
#: of reported times (about the mean sample on a 2-CPU cloud VM with
#: Python 3.11)
REFERENCE_S = {"interpreter": 50e-6, "bigint": 50e-6, "objects": 50e-6}


class SpeedProbe:
    """Samples the times of the snippets of `kinds` while active (main
    thread only); `samples` maps each kind to its sample list."""

    def __init__(self, kinds):
        self.kinds = tuple(kinds)
        self.samples = {kind: [] for kind in self.kinds}
        self._ticks = 0
        self._previous = None

    def _tick(self, signum, frame):
        kind = self.kinds[self._ticks % len(self.kinds)]
        self._ticks += 1
        # a collection of the workload's heap must not land in a sample
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        SNIPPETS[kind]()
        self.samples[kind].append(time.perf_counter() - t0)
        if collecting:
            gc.enable()

    def __enter__(self):
        self.samples = {kind: [] for kind in self.kinds}
        self._ticks = 0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_s(self, elapsed):
        return reference_s(elapsed, self.samples)


def reference_s(elapsed, samples):
    """`elapsed` wall seconds, less the time of the probe `samples` taken
    in it ({kind: [seconds]}), in reference seconds."""
    if not all(samples.values()):
        raise RuntimeError("too few speed samples: the span was too short")
    work = elapsed - sum(map(sum, samples.values()))
    slowdown = math.prod(sum(s) / len(s) / REFERENCE_S[kind]
                         for kind, s in samples.items())
    return work / slowdown ** (1 / len(samples))
