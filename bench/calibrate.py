"""Machine-speed calibration of the benchmark's timings.

On a shared host the speed of one core moves by 20% and more over
seconds to minutes, as other tenants come and go.  A fixed piece of
pure-Python work, timed over and over on a 2-vCPU VM, took anywhere
from 0.7 to 1.4 times its median time, and the pass times of one
workload moved between 3.7 s and 6.1 s within 90 s.  Raw item times
of two runs of the same code then differ by more than any useful
regression bound.

So the timed loop runs a fixed calibration unit of the benchmark's own
integer arithmetic just before and just after every item, together
for a set share of the item's time, and scales the item's time by how
fast the calibration ran around it:

    scaled = raw * (REFERENCE_UNIT_S * units / calibration_seconds)

A scaled time reads as the time the item would have taken on the
reference machine, on which one unit takes ``REFERENCE_UNIT_S``.  The
calibration calls nothing of the package under test, so a change to the
package moves scaled and raw times alike.
"""

from __future__ import annotations

import random
import time

# One unit's time on the reference machine, rounded: units timed for
# 20 s on a 2-vCPU Intel Xeon VM (2.1 GHz) with Python 3.11.7 had a
# median of 1.07 ms and quartiles of 0.78 and 1.25 ms.
REFERENCE_UNIT_S = 0.001

_rng = random.Random(0xCA11B)
_MATRICES = [[[_rng.randint(-3, 3) for _ in range(6)] for _ in range(9)]
             for _ in range(10)]


def _echelon_rank(m) -> int:
    """Rank of an integer matrix by Euclidean row reduction."""
    m = [row[:] for row in m]
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        while r < rows:
            nz = [i for i in range(r, rows) if m[i][c]]
            if not nz:
                break
            p = min(nz, key=lambda i: abs(m[i][c]))
            m[r], m[p] = m[p], m[r]
            done = True
            for i in range(r + 1, rows):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                if m[i][c]:
                    done = False
            if done:
                r += 1
                break
    return r


def unit() -> int:
    """One calibration unit: the ranks of ten fixed 9 x 6 matrices."""
    return sum(_echelon_rank(m) for m in _MATRICES)


UNIT_CHECKSUM = unit()


def measure(seconds: float) -> tuple[int, float]:
    """Run whole units for at least `seconds`, and at least one unit.

    Returns the number of units and the time they took.
    """
    clock = time.perf_counter
    start = clock()
    units = 0
    while True:
        if unit() != UNIT_CHECKSUM:
            raise RuntimeError("calibration unit gave a wrong answer")
        units += 1
        elapsed = clock() - start
        if elapsed >= seconds:
            return units, elapsed


def scale(units: int, elapsed: float) -> float:
    """The factor that turns a time measured now into reference time."""
    return REFERENCE_UNIT_S * units / elapsed
