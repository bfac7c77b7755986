"""Host-speed probe, for timings that hold across the host's phases.

On a shared host the same code runs up to twice as slow for seconds or
minutes at a time: another tenant's work contends for the core and its
caches, and the process's CPU time swings with its wall time, so neither
clock removes it, and phases that last a whole run pass through any
minimum or median taken inside the run.  The benchmark therefore takes
short probes between operations, as it goes.  A probe is a fixed piece
of the work that Fraction arithmetic does (attribute reads through Python
calls, products, gcds, exact division), once over a pool of Fractions
and once over a pool of plain integers, each pool larger than the core's
private caches, so it meets the same contention for the core and the
caches as beliefkit's own work.  It runs no beliefkit code, so no
change to beliefkit moves it, and it makes no object the garbage
collector tracks, so how many probes run does not move the collector's
schedule inside the timed operations.

A timed interval is reported at reference speed: its wall time times
``REFERENCE_MS / p``, where ``p`` is the median probe taken within
``WINDOW_S`` of the interval; the host's speed moves within a second,
and of the windows tried, a quarter second left the least spread
between runs.  ``REFERENCE_MS`` is a fixed constant near the probe's
median on the shared 2-vCPU host the baseline was taken on (3.0-5.2 ms
across its runs), so the figures read roughly as milliseconds there.  Probes take about ``SHARE`` of the time they watch.
"""

from __future__ import annotations

import random
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd
from time import perf_counter

REFERENCE_MS = 4.0
WINDOW_S = 0.25
SHARE = 0.1
FRACTIONS = 20_000
INTEGERS = 60_000
STEPS = 1000


def _product(x: Fraction, y: Fraction) -> int:
    """The integer work of ``x * y``, without building the Fraction."""
    num, den = x.numerator * y.numerator, x.denominator * y.denominator
    g = gcd(num, den)
    return num // g + den // g


class Probe:
    def __init__(self):
        rng = random.Random(0)
        self.fractions = [
            Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(FRACTIONS)
        ]
        rng.shuffle(self.fractions)
        self.integers = [rng.randint(1, 1 << 40) for _ in range(INTEGERS)]
        self.at = 0
        self.times: list[float] = []  # when each probe ended, in perf_counter seconds
        self.ms: list[float] = []
        self.owed = 0.0

    def sample(self, count: int = 1) -> None:
        fractions, integers = self.fractions, self.integers
        nf, ni = len(fractions), len(integers)
        for _ in range(count):
            i = self.at
            start = perf_counter()
            total = 0
            for k in range(STEPS):
                total += _product(fractions[(i + 199 * k) % nf], fractions[(i + 7919 * k) % nf])
            for k in range(STEPS):
                a, b = integers[(i + 199 * k) % ni], integers[(i + 7919 * k) % ni]
                c = integers[(i + 4001 * k) % ni]
                total += a * b // gcd(a * b, b * c)
            end = perf_counter()
            self.at = (i + 7001) % ni
            self.times.append(end)
            self.ms.append((end - start) * 1e3)

    def pay(self, seconds: float) -> None:
        """Probe for about SHARE of ``seconds`` of watched time."""
        self.owed += SHARE * seconds * 1e3
        while self.owed > 0:
            self.sample()
            self.owed -= self.ms[-1]

    def scaled_ms(self, start: float, end: float) -> float:
        """Milliseconds from ``start`` to ``end``, at reference speed."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # no probe in the window: the nearest one
            lo = min(max(lo - 1, 0), len(self.ms) - 1)
            hi = lo + 1
        return (end - start) * 1e3 * REFERENCE_MS / statistics.median(self.ms[lo:hi])

    def median_ms(self) -> float:
        return statistics.median(self.ms)
