"""Correction of the benchmark's timings for the speed of a shared host.

On a small shared machine the same computation takes up to twice as long
from one minute to the next, because other tenants load the cores.
A median over one run does not remove a slowdown that lasts the whole
run.  So between operations the benchmark times a fixed pure-Python loop
(dicts of tuple words, ``Fraction`` sums, a sort: the kind of work ncpoly
does), at most once every ``EVERY_S`` seconds and once more after the
last operation, and multiplies each operation's time by ``REFERENCE_S``
over the mean loop time just before and just after it.  The corrected
times read as the times at the host's quiet speed.
"""

from fractions import Fraction
from statistics import median
from time import perf_counter

# about the loop's time when the 2-vCPU host it was tuned on is quiet
# (Python 3.11); loaded, the same loop takes up to twice as long
REFERENCE_S = 0.7e-3
EVERY_S = 0.05


def _loop():
    acc = {}
    words = [(i % 3, i % 5, i % 2) for i in range(40)]
    for rep in range(6):
        for i, w in enumerate(words):
            u = w + w[:2]
            acc[u] = acc.get(u, Fraction(0)) + Fraction(i + rep, 7)
    return sorted(acc, key=lambda w: (len(w), w), reverse=True)


class Calibration:
    """Loop timings taken during one pass (or one series of set-ups)."""

    def __init__(self):
        self.samples = []
        self._last = float("-inf")

    def sample(self, force=False):
        """Time the loop, unless it was timed less than EVERY_S ago.
        Returns the index of the latest sample."""
        if force or perf_counter() - self._last >= EVERY_S:
            started = perf_counter()
            _loop()
            self._last = perf_counter()
            self.samples.append(self._last - started)
        return len(self.samples) - 1

    def correct(self, seconds, index):
        """``seconds`` measured right after sample ``index`` (and before
        sample ``index + 1``), brought to the reference speed."""
        return seconds * 2 * REFERENCE_S / (self.samples[index] + self.samples[index + 1])

    def factor(self):
        """The median multiplier over the samples, for reporting."""
        return REFERENCE_S / median(self.samples)
