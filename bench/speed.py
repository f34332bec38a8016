"""A machine-speed reference, so timings survive a shared, drifting host.

On a host shared with other tenants the same pure-Python computation can
take twice as long for minutes at a time. Timings taken minutes apart are
then not comparable, whatever the code under test does. The benchmark
therefore times a fixed reference computation (exact ``Fraction`` and
dict arithmetic, the library's own diet) every ``INTERVAL_S`` seconds
between operations, and scales each timing by ``NOMINAL_S`` over the
reference time measured around it. A reported time is thus the time the
work would take on a machine where the reference takes ``NOMINAL_S``;
the raw timings and the reference samples are kept in the result record.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.0025  # the reference's time on a quiet 2-vCPU Xeon VM
INTERVAL_S = 0.25
WINDOW = 2  # samples on each side of a timing that set its scale


def reference() -> Fraction:
    acc: dict[tuple, Fraction] = {}
    for i in range(1, 600):
        q = Fraction(i % 7 + 1, i % 11 + 13)
        key = (i % 5, i % 3)
        acc[key] = acc.get(key, Fraction(0)) + q * q
    return sum(acc.values(), Fraction(0))


def time_reference() -> float:
    """Least of three timings of ``reference``."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        reference()
        best = min(best, perf_counter() - start)
    return best


class SpeedClock:
    """Reference samples (wall time taken, reference seconds), in order."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> int:
        """Take a sample now; returns its index."""
        self.samples.append((perf_counter(), time_reference()))
        return len(self.samples) - 1

    def mark(self) -> int:
        """Index of the latest sample, taking a new one if it is stale."""
        if not self.samples or perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, before: int, after: int | None = None) -> float:
        """Factor for a timing made between sample ``before`` and sample
        ``after`` (by default the next one): nominal over the median of
        the samples from ``WINDOW`` before to ``WINDOW`` after. A single
        sample is itself noisy, and dividing by a noisy sample inflates
        the scaled time most where the host is busiest."""
        last = before + 1 if after is None else after
        window = self.samples[max(0, before - WINDOW):last + WINDOW + 1]
        return NOMINAL_S / statistics.median(r for _, r in window)
