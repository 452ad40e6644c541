"""Machine-speed probe for a shared, noisy host.

On the 2-core virtual machine this benchmark was built on, the speed of the
same single-threaded Python code drifts by up to a factor of two, in phases
of seconds to tens of seconds (neighbours on the host), and CPU time drifts
with it.  A fixed kernel of Fraction, dict and integer work is timed
between requests; each request's time is divided by the kernel's slowdown
at that moment: the median of the probes taken within a few seconds of it.
Scaled so, a second is a second at the speed where one kernel takes
``KERNEL_REF_S``.  The raw wall-clock figures are printed beside them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import median
from time import perf_counter

KERNEL_REF_S = 0.004
PROBE_EVERY_S = 0.5
# Kernel runs per probe: PROBE_REPEATS for every PROBE_EVERY_S since the
# last probe, up to MAX_REPEATS.  A probe after a long request looks longer,
# so that it reads the average speed and not one short dip.
PROBE_REPEATS = 3
MAX_REPEATS = 15
# Probes this close to a request count for it: shorter than the drift
# phases, long enough that one disturbed probe does not decide.
WINDOW_S = 2.5


def _kernel() -> int:
    s = Fraction(0)
    d: dict[tuple[int, int], int] = {}
    for i in range(1, 800):
        s += Fraction(i % 13 + 1, i % 7 + 2)
        d[(i % 50, i % 7)] = s.numerator % 97
    x = len(sorted(d.items()))
    for i in range(30_000):
        x += i * i % 7
    return x


class SpeedProbe:
    """Slowdown factors over time: 1.0 means one kernel takes ``KERNEL_REF_S``."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.factors: list[float] = []
        self._last = perf_counter()

    def probe(self) -> None:
        gap = perf_counter() - self._last
        repeats = PROBE_REPEATS * max(1, min(int(gap / PROBE_EVERY_S), MAX_REPEATS // PROBE_REPEATS))
        runs = []
        for _ in range(repeats):
            t0 = perf_counter()
            _kernel()
            runs.append(perf_counter() - t0)
        self.times.append(perf_counter())
        self.factors.append(median(runs) / KERNEL_REF_S)
        self._last = self.times[-1]

    def maybe_probe(self) -> None:
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """Median slowdown of the probes within ``WINDOW_S`` of ``[start, end]``,
        else of the nearest probe on each side."""
        i = bisect_left(self.times, start - WINDOW_S)
        j = bisect_right(self.times, end + WINDOW_S)
        if i == j:
            i, j = max(i - 1, 0), min(j + 1, len(self.times))
        return median(self.factors[i:j])
