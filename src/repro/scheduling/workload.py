"""MUMPS' original workload-based slave selection (the paper's baseline).

Section 3 of the paper: "each (master) processor tries to choose only the
processors less-loaded than itself, with some granularity constraints.  In
addition, the selection is done such that the amount of work given to the
slaves is as balanced as possible with the workload of the corresponding task
on the master."  The workload metric is the number of floating-point
operations still to be done.

Like :class:`~repro.scheduling.memory_slave.MemorySlaveSelector`, the
selection runs on plain Python floats with numpy's rounding kept;
``tests/test_engine_identity.py`` keeps the historical per-candidate loops as
its oracle.
"""

from __future__ import annotations

import math

from repro.scheduling.base import SlaveSelectionContext, SlaveSelector, pairwise_sum

__all__ = ["WorkloadSlaveSelector"]


class WorkloadSlaveSelector(SlaveSelector):
    """Choose the least-loaded processors and balance the rows among them."""

    name = "workload"

    def __init__(self, *, proportional: bool = True):
        #: distribute rows inversely proportionally to the believed loads
        #: (``True``) or in equal shares (``False``)
        self.proportional = proportional

    def select(self, ctx: SlaveSelectionContext) -> list[tuple[int, int]]:
        cand = ctx.candidates
        if ctx.ncb <= 0 or len(cand) == 0:
            return []
        load_view = ctx.load_view
        loads = [load_view[q] for q in cand]
        # a stable sort: ties keep the candidate order
        order = sorted(range(len(loads)), key=loads.__getitem__)

        # prefer processors strictly less loaded than the master
        own_load = ctx.own_load
        chosen_pool = [cand[i] for i in order if loads[i] < own_load]
        if not chosen_pool:
            chosen_pool = [cand[i] for i in order]

        # granularity constraints: each slave must receive a useful amount of
        # rows, and the number of slaves is bounded
        max_by_rows = max(1, ctx.ncb // max(ctx.min_rows_per_slave, 1))
        chosen = chosen_pool[: min(len(chosen_pool), ctx.max_slaves, max_by_rows)]

        if self.proportional:
            # fewer rows to more-loaded slaves: weights are the load gaps to
            # the most loaded candidate plus one row to keep weights positive
            top = max(load_view)
            gaps = [max(top - load_view[q], 0.0) + 1.0 for q in chosen]
            total = pairwise_sum(gaps)
            weights = [g / total for g in gaps]
        else:
            weights = [1.0 / len(chosen)] * len(chosen)
        return _spread_rows(chosen, weights, ctx.ncb)


def _spread_rows(chosen, weights, ncb: int) -> list[tuple[int, int]]:
    """Weighted row distribution: floor shares, remainder one row at a time."""
    rows = [math.floor(w * ncb) for w in weights]
    # distribute the remainder one row at a time to the least loaded, i.e.
    # every slave gets `share` and the first `extra` one more
    remainder = ncb - sum(rows)
    if remainder > 0 and len(chosen):
        share, extra = divmod(remainder, len(chosen))
        rows = [r + share + (k < extra) for k, r in enumerate(rows)]
    return [(int(q), int(r)) for q, r in zip(chosen, rows) if r > 0]
