"""Host-speed calibration: bench timings at a reference machine's speed.

A shared VM drifts by tens of percent over minutes, so raw wall seconds
recorded on one day cannot gate a run on another.  :func:`calibration_sample`
times a fixed piece of work that uses no code of the program; the runner
takes samples around every timed repeat and divides the repeat by the host
slowdown they measure (their median over :data:`REFERENCE_SAMPLE_S`).  A
change to the program moves the repeat but not the sample, while host drift
moves both.

The sample is the same fixed workload as ``perfbench/common.py``'s, so the
two harnesses report at the same reference speed.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Sequence

import numpy as np

__all__ = ["REFERENCE_SAMPLE_S", "calibration_sample", "slowdown"]

#: median seconds of one calibration sample on the reference machine (a
#: shared 2-vCPU Xeon VM at 2.0 GHz); calibrated times are at its speed
REFERENCE_SAMPLE_S = 0.003

_CAL_SMALL = np.random.default_rng(0).random(500)
_CAL_BIG = np.random.default_rng(1).random(50_000)


def calibration_sample() -> float:
    """Seconds of a fixed piece of work that uses no code of the program.

    Interpreter arithmetic, a heap and a dict, tuple allocation, small and
    large numpy calls: the kinds of work the program does.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(8000):
        total += i * i % 7
    heap: list = []
    index = {}
    for j in range(800):
        heapq.heappush(heap, ((j * 7919) % 801, j))
        index[j] = (j, j)
    while heap:
        heapq.heappop(heap)
    total += len({str(i): (i, float(i)) for i in range(1500)})
    for _ in range(20):
        np.cumsum(_CAL_SMALL)
        np.maximum(_CAL_SMALL, 0.5).argmax()
    np.sort(_CAL_BIG).sum()
    return time.perf_counter() - t0


def slowdown(samples: Sequence[float]) -> float:
    """How much slower than the reference machine the host ran, over ``samples``."""
    return statistics.median(samples) / REFERENCE_SAMPLE_S
