"""Simulation traces: per-processor memory evolution over simulated time.

Used by the figure benchmarks (memory evolution plots of the kind that
motivate Figures 4, 6 and 8) and by the examples.  Trace points are recorded
into :class:`TraceBuffer` s — preallocated numpy columns grown by doubling —
so tracing costs three array stores per memory event instead of three Python
list appends, and the post-run trace arrays are zero-copy views of the
buffers.  The trace is built from the per-processor
:class:`~repro.runtime.memory_state.ProcessorMemory` histories (object
engines) or directly from the SoA engine's buffers after the run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimulationTrace", "TraceBuffer"]


class TraceBuffer:
    """Append-only (time, stack, factors) history in one growable array.

    The storage is a ``(3, capacity)`` float64 block; an append is three
    scalar stores and the capacity doubles when full, so recording a trace
    point never allocates per event.  The ``times``/``stack``/``factors``
    properties are zero-copy views trimmed to the recorded length.
    """

    __slots__ = ("_data", "_size")

    def __init__(self, capacity: int = 1024) -> None:
        self._data = np.empty((3, max(int(capacity), 1)), dtype=np.float64)
        self._size = 0

    def append(self, time: float, stack: float, factors: float) -> None:
        n = self._size
        data = self._data
        if n == data.shape[1]:
            data = np.concatenate((data, np.empty_like(data)), axis=1)
            self._data = data
        data[0, n] = time
        data[1, n] = stack
        data[2, n] = factors
        self._size = n + 1

    def __len__(self) -> int:
        return self._size

    @property
    def times(self) -> np.ndarray:
        return self._data[0, : self._size]

    @property
    def stack(self) -> np.ndarray:
        return self._data[1, : self._size]

    @property
    def factors(self) -> np.ndarray:
        return self._data[2, : self._size]


@dataclass
class SimulationTrace:
    """Memory history of every processor of one simulated factorization."""

    times: list[np.ndarray]
    stack: list[np.ndarray]
    factors: list[np.ndarray]

    @classmethod
    def from_processors(cls, processors) -> "SimulationTrace":
        return cls(
            times=[np.asarray(p.memory.trace_times, dtype=np.float64) for p in processors],
            stack=[np.asarray(p.memory.trace_stack, dtype=np.float64) for p in processors],
            factors=[np.asarray(p.memory.trace_factors, dtype=np.float64) for p in processors],
        )

    @classmethod
    def from_buffers(cls, buffers: list[TraceBuffer]) -> "SimulationTrace":
        """Build a trace straight from the SoA engine's per-processor buffers."""
        return cls(
            times=[b.times for b in buffers],
            stack=[b.stack for b in buffers],
            factors=[b.factors for b in buffers],
        )

    @property
    def nprocs(self) -> int:
        return len(self.times)

    def peak_stack(self, proc: int) -> float:
        arr = self.stack[proc]
        return float(arr.max()) if arr.size else 0.0

    def sampled(self, proc: int, nsamples: int = 200) -> tuple[np.ndarray, np.ndarray]:
        """Resample processor ``proc``'s stack history on a regular time grid."""
        t = self.times[proc]
        s = self.stack[proc]
        if t.size == 0:
            return np.zeros(nsamples), np.zeros(nsamples)
        grid = np.linspace(0.0, float(t[-1]), nsamples)
        idx = np.searchsorted(t, grid, side="right") - 1
        idx = np.clip(idx, 0, t.size - 1)
        return grid, s[idx]

    def ascii_sparkline(self, proc: int, width: int = 60) -> str:
        """Compact ascii rendering of one processor's stack history."""
        _, s = self.sampled(proc, width)
        if s.max() <= 0:
            return "·" * width
        levels = " ▁▂▃▄▅▆▇█"
        scaled = np.round(s / s.max() * (len(levels) - 1)).astype(int)
        return "".join(levels[int(v)] for v in scaled)
