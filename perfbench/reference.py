"""A fixed kernel that gauges how fast the shared machine runs right now.

The benchmark's machine shares its cores with other tenants, and the speed
of interpreter-bound code drifts by 15-20% over minutes.  ``Reference``
times this kernel between the operations of a run; dividing by the run's
median kernel time removes the drift that a whole run shares.  The kernel
uses the interpreter and numpy only, never hilbertgeom, so its code does
not change with the program's.  It runs in the benchmark's own process, on
the same core and in the same moments as the operations: a helper process
tracked the drift worse (NOTES.md).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median kernel time on the machine in NOTES.md; a normalised time is in
# seconds at this speed.
NOMINAL_S = 0.045


def kernel() -> float:
    # float arithmetic and dict stores, as in scalar bisection loops
    acc, seen = 0.0, {}
    for i in range(80_000):
        x = i * 1e-3
        acc += x * x - 0.5 * x
        seen[i & 1023] = acc
    # numpy calls on 2-row arrays, as in the per-instance oracle calls
    v = np.array([[0.3, 0.4], [0.5, 0.1]])
    for _ in range(3_000):
        w = np.minimum(np.hypot(v[:, 0], v[:, 1]), 1.0)
        v = np.stack([np.cos(w), np.sin(w)], axis=1)
    return acc + float(v.sum())


class Reference:
    """Kernel times, one per ``sample`` call."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t0)

    def factor(self) -> float:
        """NOMINAL_S ÷ the median sample: multiply a time by it to normalise."""
        return NOMINAL_S / statistics.median(self.samples)
