"""Timings scaled to a fixed machine speed.

The benchmark's host lends it a share of a busy machine, and the speed of
that share drifts by half or more within a minute, in CPU time as much as
in wall time.  A run cannot wait such drift out, so it measures it: while
the program works, a SIGALRM handler interrupts it every PERIOD_S seconds
and times one call of a fixed reference kernel.  A span of program work is
then reported as

    (wall seconds - seconds spent in the sampler) * REFERENCE_S / k

where k is the mean kernel duration sampled during the span (with the
sample just before and just after it).  That is the span's
duration on a machine where the kernel takes REFERENCE_S seconds.  The
kernel is the benchmark's own code and data, so a change to the package
changes the numerator only.

The kernel does two kinds of work the package does: it multiplies two
integers of about 19000 digits and divides the product exactly by 3,
25 times over, and it sorts 1000 short tuples of small integers by a
computed key and indexes them in a dict, as the search's offset
enumeration does.  In trials on the host it was chosen on, the pair
followed the drift of the workloads about as well as the better of its
halves, and better than interpreted Fraction polynomial arithmetic or
walks over a heap of Fractions.
"""
from __future__ import annotations

import random
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

PERIOD_S = 0.04  # program seconds between two samples
REFERENCE_S = 0.006  # nominal duration of one kernel call

_BIG = 3**40000 + 1
_rng = random.Random(0)
_TUPLES = [tuple(_rng.randrange(-1, 2) for _ in range(8)) for _ in range(1000)]
del _rng


def reference_kernel() -> int:
    y = _BIG * (_BIG + 7)
    for _ in range(25):
        y //= 3
    ranked = sorted(_TUPLES, key=lambda t: (sum(x * x for x in t), t))
    return y % 7 + len({t: i for i, t in enumerate(ranked)})


@dataclass(frozen=True)
class Mark:
    at: float  # clock reading
    samples: int  # samples taken before it
    stolen: float  # sampler seconds before it


class Speedometer:
    """Samples the reference kernel from a timer signal while `running`.

    The timer is one-shot and re-armed at the end of each sample, so samples
    never nest and PERIOD_S of program time separates two of them.
    """

    def __init__(self, period: float = PERIOD_S, clock=time.perf_counter):
        self.period = period
        self.clock = clock
        self.samples: list[float] = []
        self.stolen = 0.0

    def _sample(self, signum, frame) -> None:
        start = self.clock()
        reference_kernel()
        self.samples.append(self.clock() - start)
        signal.setitimer(signal.ITIMER_REAL, self.period)
        self.stolen += self.clock() - start

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> Mark:
        return Mark(self.clock(), len(self.samples), self.stolen)

    def wall(self, start: Mark, end: Mark) -> float:
        """Program seconds between two marks, sampler time left out."""
        return (end.at - start.at) - (end.stolen - start.stolen)

    def scaled(self, start: Mark, end: Mark) -> float:
        """Program seconds between two marks at the nominal kernel speed."""
        window = self.samples[max(start.samples - 1, 0):end.samples + 1]
        if not window:
            raise RuntimeError("no speed sample near the span")
        return self.wall(start, end) * REFERENCE_S * len(window) / sum(window)
