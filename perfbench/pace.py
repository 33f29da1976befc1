"""A yardstick for the machine's speed, timed around every timed operation.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x over seconds to minutes, and the CPU itself runs slower (CPU time
tracks wall time), so neither the fastest nor the median of an operation's
wall times is steady between runs. Clock times each operation and, right
after it, a fixed unit of exact arithmetic from the benchmark's own oracle
(two small transfer matrices, plain ints and Z[i, sqrt2]) for SHARE of the
operation's time (MAX_PACE_S at most). The operation's wall time is then
rescaled by the ratio of the unit's reference time UNIT_S to the mean of its
times measured just before and just after the operation: the wall time the
operation would take with the machine at its reference speed.

The unit never calls the program, so a change to the program moves the
operation's time and not the yardstick. A change to the unit or to the
oracle's arithmetic changes the scale of every figure, so it is a change
of the benchmark.
"""

from __future__ import annotations

from time import perf_counter

import oracle as O

ICE = (O.weight(1),) * 6
ROOT2 = (
    O.weight(1, 0, 1),
    O.weight(2, 1),
    O.weight("1/2"),
    O.weight(0, 0, 1, 1),
    O.weight("3/2", 0, "-1/2"),
    O.weight(1, 1, 0, "1/2"),
)
# one unit's wall time at the reference speed: its fastest time on a 2.1 GHz
# Xeon vCPU under Python 3.11.7
UNIT_S = 0.0145
MIN_UNITS = 2
SHARE = 0.5
MAX_PACE_S = 0.5


def unit():
    O.torus_tm(6, 8, ICE)
    O.torus_tm(5, 6, ROOT2)


def per_unit(budget: float) -> float:
    """Run whole units until `budget` seconds have passed (at least
    MIN_UNITS); returns the seconds per unit."""
    n = 0
    t0 = perf_counter()
    while True:
        unit()
        n += 1
        t = perf_counter() - t0
        if n >= MIN_UNITS and t >= budget:
            return t / n


class Clock:
    """clock(fn, *args) calls fn(*args), times it, paces it, and returns
    its result. `raw` and `scaled` hold each call's wall seconds as measured
    and at the reference speed, in call order."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._last = None

    def __call__(self, fn, *args, **kwargs):
        before = self._last if self._last is not None else per_unit(0.0)
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        t = perf_counter() - t0
        after = self._last = per_unit(min(SHARE * t, MAX_PACE_S))
        self.raw.append(t)
        self.scaled.append(t * 2 * UNIT_S / (before + after))
        return out
