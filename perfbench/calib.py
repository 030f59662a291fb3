"""Machine-speed calibration.

A shared machine can change speed by 1.5x or more for seconds at a time.  A
fixed chunk of interpreter work, timed next to each measurement on the same
CPU, tracks that speed: times in the result line are multiplied by
``REFERENCE_S / chunk time`` ("reference seconds", see ``Timeline``).  That
removes the machine's speed swings but not a change in the program, since
the chunk runs none of its code.  Raw seconds are reported beside them.

Different kinds of interpreter work slow down by different amounts, so the
chunk mixes the three kinds bordismkit spends its time on (integer loops,
small-matrix elimination over lists, Fraction arithmetic) and takes the
geometric mean of their times.  On a shared 2-core Xeon virtual machine
this tracked the library's operations two to three times more closely than
an integer loop alone.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.005  # the chunk's time at reference speed


def _integers() -> None:
    acc = 0
    for i in range(100_000):
        acc += i * i % 7


def _elimination() -> None:
    for a in range(-1, 2):
        for b in range(-1, 2):
            for c in range(-2, 3):
                for r in range(40):
                    x = [[a, b, 1], [c, 1, a], [1, r % 3, b]]
                    prev = 1
                    for k in range(2):
                        if x[k][k] == 0:
                            continue
                        for i in range(k + 1, 3):
                            for j in range(k + 1, 3):
                                x[i][j] = (x[i][j] * x[k][k] - x[i][k] * x[k][j]) // prev
                        prev = x[k][k]


def _fractions() -> None:
    acc = Fraction(0)
    for i in range(1, 2000):
        acc += Fraction(i % 13 + 1, i % 7 + 1)


def chunk() -> float:
    """Geometric mean of the seconds taken by the three fixed pieces of work.

    The garbage collector is off meanwhile: a collection the chunk's
    allocations set off would walk the program's heap, charging the program's
    size to the machine's speed.  A collection they make due falls in the
    program's time instead.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        logs = 0.0
        for work in (_integers, _elimination, _fractions):
            t0 = time.perf_counter()
            work()
            logs += math.log(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return math.exp(logs / 3)


class Timeline:
    """Measured work and calibration chunks, each with its start and end.

    Work intervals may contain chunks (run from a signal handler); their
    time is cut out.  Each remaining piece of work is converted at the speed
    the chunks nearest to it in time measured (up to NEIGHBOURS on each
    side), so a speed change in the middle of a run is charged to the work
    done after it.
    """

    NEIGHBOURS = 2

    def __init__(self) -> None:
        # in time order: (start, end, chunk seconds) and (start, end)
        self.chunks: list[tuple[float, float, float]] = []
        self.intervals: list[tuple[float, float]] = []

    def chunk(self) -> None:
        start = time.perf_counter()
        seconds = chunk()
        self.chunks.append((start, time.perf_counter(), seconds))

    def work(self, start: float, end: float) -> None:
        self.intervals.append((start, end))

    def _cut(self, start: float, end: float) -> list[tuple[float, float]]:
        """A work interval with the chunks inside it cut out."""
        out = []
        for c_start, c_end, _ in self.chunks:
            if c_end <= start or c_start >= end:
                continue
            if c_start > start:
                out.append((start, c_start))
            start = max(start, c_end)
        if end > start:
            out.append((start, end))
        return out

    def raw_s(self) -> float:
        return sum(b - a for s, e in self.intervals for a, b in self._cut(s, e))

    def reference_pieces(self) -> list[float]:
        """Each work interval, in reference seconds."""
        starts = [c[0] for c in self.chunks]
        out = []
        for start, end in self.intervals:
            total = 0.0
            for a, b in self._cut(start, end):
                k = bisect.bisect(starts, a)
                near = self.chunks[max(0, k - self.NEIGHBOURS):k + self.NEIGHBOURS]
                total += (b - a) * REFERENCE_S / statistics.median(c[2] for c in near)
            out.append(total)
        return out

    def reference_s(self) -> float:
        return sum(self.reference_pieces())
