"""Reference clocks that track the machine's current speed.

On a shared machine the same code runs 30-60 % slower for minutes at a time.
The benchmark times a reference next to what it measures and scales the
measured time by the reference's nominal time over its measured time:

- solve times by a fixed ``Fraction`` loop (no package code), sampled
  between systems;
- set-up times by the same loop, sampled just before and just after;
- cold command-line runs by a bare interpreter start (``python -c pass``),
  whose exec, start-up and import machinery slows down the way theirs does
  and far less than pure computation.

A scaled time reads as wall time on the machine at its nominal speed.  Both
raw and scaled times are printed; the bounded metrics use the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from fractions import Fraction

# the loop's time and a bare interpreter start on an idle 2.1 GHz Xeon
# (Python 3.11), where the baseline in baseline.json was recorded
NOMINAL_S = 1.45e-3
START_NOMINAL_S = 0.048


def sample():
    start = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 600):
        s += Fraction(1, i)
    return time.perf_counter() - start


class Speed:
    """Median of the latest loop times, as a slowdown factor against nominal."""

    def __init__(self):
        self.samples = deque(maxlen=5)

    def measure(self, n=1):
        for _ in range(n):
            self.samples.append(sample())

    def factor(self):
        return statistics.median(self.samples) / NOMINAL_S
