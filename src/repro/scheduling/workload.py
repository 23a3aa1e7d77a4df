"""MUMPS' original workload-based slave selection (the paper's baseline).

Section 3 of the paper: "each (master) processor tries to choose only the
processors less-loaded than itself, with some granularity constraints.  In
addition, the selection is done such that the amount of work given to the
slaves is as balanced as possible with the workload of the corresponding task
on the master."  The workload metric is the number of floating-point
operations still to be done.

Like :class:`~repro.scheduling.memory_slave.MemorySlaveSelector`, the
selection runs as gathers and masks over the believed-load array;
``tests/test_engine_identity.py`` keeps the historical per-candidate loops as
its oracle.
"""

from __future__ import annotations

import numpy as np

from repro.scheduling.base import SlaveSelectionContext, SlaveSelector

__all__ = ["WorkloadSlaveSelector"]


class WorkloadSlaveSelector(SlaveSelector):
    """Choose the least-loaded processors and balance the rows among them."""

    name = "workload"

    def __init__(self, *, proportional: bool = True):
        #: distribute rows inversely proportionally to the believed loads
        #: (``True``) or in equal shares (``False``)
        self.proportional = proportional

    def select(self, ctx: SlaveSelectionContext) -> list[tuple[int, int]]:
        if ctx.ncb <= 0:
            return []
        cand = np.asarray(ctx.candidates, dtype=np.int64)
        if cand.size == 0:
            return []
        load_view = np.asarray(ctx.load_view, dtype=np.float64)
        loads = load_view[cand]
        order = np.argsort(loads, kind="stable")
        sorted_procs = cand[order]

        # prefer processors strictly less loaded than the master
        less_loaded_mask = loads[order] < ctx.own_load
        chosen_pool = sorted_procs[less_loaded_mask] if less_loaded_mask.any() else sorted_procs

        # granularity constraints: each slave must receive a useful amount of
        # rows, and the number of slaves is bounded
        max_by_rows = max(1, ctx.ncb // max(ctx.min_rows_per_slave, 1))
        nslaves = min(int(chosen_pool.size), ctx.max_slaves, max_by_rows)
        chosen = chosen_pool[:nslaves]

        if self.proportional:
            # fewer rows to more-loaded slaves: weights are the load gaps to
            # the most loaded candidate plus one row to keep weights positive
            gaps = np.maximum(float(np.max(load_view)) - load_view[chosen], 0.0) + 1.0
            weights = gaps / gaps.sum()
        else:
            weights = np.full(len(chosen), 1.0 / len(chosen))
        return _spread_rows(chosen, weights, ctx.ncb)


def _spread_rows(chosen, weights: np.ndarray, ncb: int) -> list[tuple[int, int]]:
    """Weighted row distribution: floor shares, remainder one row at a time."""
    rows = np.floor(weights * ncb).astype(int)
    # distribute the remainder one row at a time to the least loaded
    remainder = ncb - int(rows.sum())
    k = 0
    nchosen = len(chosen)
    while remainder > 0 and nchosen:
        rows[k % nchosen] += 1
        remainder -= 1
        k += 1
    return [(int(q), int(r)) for q, r in zip(chosen, rows) if r > 0]
