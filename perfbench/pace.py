"""Machine-speed reference for the benchmark's timings.

On a shared machine the same op can run 1.45x slower for tens of seconds
at a time while a neighbour is busy (measured: a fixed kernel took 2.7 to
3.1 ms in fast stretches and 4.2 to 4.4 ms in slow ones, with stretches
lasting 5 to 60 s).  A 20 s run then lands in one state or the other, and
the run-to-run spread of its median latency is set by the neighbours, not
by the program.

So a fixed kernel of benchmark-owned code (a dense SVD, exact rational
sums, dict and integer churn: the kinds of work the ops do) is timed in
process CPU time before every op and after the last one.  Each op's time
is scaled by ``REFERENCE_MS`` over the median kernel time of the samples
around it.
Reported times are therefore in milliseconds at the reference speed; the
raw times are kept in the run's output file.  The kernel calls no
chainsense code, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

#: kernel time on the reference machine (2 vCPU x86 VM) in a fast stretch
REFERENCE_MS = 3.0

#: samples on each side of an op that its scale factor is the median of
HALF_WINDOW = 3


_MATRIX = np.random.default_rng(0).standard_normal((80, 80))


def kernel_ms() -> float:
    start = time.process_time()
    np.linalg.svd(_MATRIX)
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    table = {}
    for i in range(5000):
        table[i ^ (i >> 2)] = i
    return (time.process_time() - start) * 1e3


def op_factors(samples: list[float]) -> list[float]:
    """Scale factor of op i, whose kernel samples are ``samples[i]``
    (before it) and ``samples[i + 1]`` (after it)."""
    return [
        REFERENCE_MS / statistics.median(
            samples[max(0, i + 1 - HALF_WINDOW): i + 1 + HALF_WINDOW])
        for i in range(len(samples) - 1)
    ]
