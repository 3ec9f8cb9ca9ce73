"""A clock that counts seconds at a fixed reference speed of the host.

The host's speed drifts (README.md, "Environment and host drift").  Each of
its CPUs switches between two speeds about 1.7x apart, often within a
second, sometimes for minutes, and the package's code slows down with it.
So ``ReferenceClock`` times a small fixed yardstick every ``TICK_S`` of
wall time, from a timer signal, and advances by the wall time since its
last tick times ``REFERENCE_S`` over the yardstick's time (the mean of the
two timings around it).  Its reading is the time the program would have
taken at the reference speed.  The time spent on the yardstick itself is
left out of both the raw and the reference reading.

The yardstick shares no code with ``punchex`` (a change to the package
cannot move it) but does the same kind of work: Gaussian elimination over
``Fraction``, a dictionary-keyed path count over big integers, and a
recursive search with tuple keys.  Timed back to back with ``count lgv``
(4,4,4) on one CPU, it scaled that instance to within 3% in both speeds.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Median time of one ``_kernel()`` pass on the reference host (2-CPU VM,
# Python 3.11.7) in its slow phase.  Only the ratio to it matters.
REFERENCE_S = 0.00037
PASSES = 3
TICK_S = 0.02


def _eliminate(n: int) -> Fraction:
    a = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def _paths(width: int, height: int) -> int:
    counts = {(0, 0): 1}
    for x in range(width + 1):
        for y in range(height + 1):
            if (x, y) != (0, 0):
                counts[x, y] = counts.get((x - 1, y), 0) + counts.get((x, y - 1), 0) * 3
    return counts[width, height]


def _search(depth: int, seen: tuple = ()) -> int:
    if depth == 0:
        return 1
    return sum(_search(depth - 1, seen + (k,)) for k in range(4) if k not in seen[-1:])


def _kernel() -> int:
    return int(_eliminate(4).numerator % 1000) + _paths(10, 10) % 1000 + _search(3)


EXPECTED = _kernel()


def yardstick_s() -> float:
    """Median seconds of one kernel pass over ``PASSES`` passes."""
    times = []
    for _ in range(PASSES):
        t = time.perf_counter()
        if _kernel() != EXPECTED:
            raise RuntimeError("calibration kernel is not deterministic")
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class ReferenceClock:
    """Raw and reference-speed seconds, both without the yardstick's time.

    ``read()`` gives both totals so far; the difference of two readings
    times what ran between them.  Only one clock may run in a process, as
    it owns ``SIGALRM``.
    """

    def __init__(self):
        self.raw = self.ref = 0.0
        self.ticks = 0
        self.last = yardstick_s()
        self.since = time.perf_counter()  # end of the last yardstick timing
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def _tick(self, *_) -> None:
        elapsed = time.perf_counter() - self.since
        now = yardstick_s()
        self.raw += elapsed
        self.ref += elapsed * 2 * REFERENCE_S / (self.last + now)
        self.last = now
        self.since = time.perf_counter()
        self.ticks += 1

    def read(self):
        """(raw, reference) seconds so far; the part since the last tick is
        scaled by the last yardstick timing."""
        while True:  # retry if a tick came in between
            ticks = self.ticks
            elapsed = time.perf_counter() - self.since
            reading = self.raw + elapsed, self.ref + elapsed * REFERENCE_S / self.last
            if ticks == self.ticks:
                return reading

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


if __name__ == "__main__":
    # the same work ten times: the raw times drift, the reference ones should not
    clock = ReferenceClock()
    for _ in range(10):
        raw0, ref0 = clock.read()
        for _ in range(40):
            _eliminate(10), _paths(60, 60), _search(7)
        raw1, ref1 = clock.read()
        print(f"raw {raw1 - raw0:.3f} s, reference {ref1 - ref0:.3f} s")
    clock.stop()
