"""Algorithm 1: memory-based slave selection (Section 4, improved in 5.1).

The master sorts the candidate slaves by (believed) memory occupation and
chooses the smallest prefix that can absorb the rows of the front while
*levelling* the memory: each selected slave first receives enough rows to
bring it up to the level of the most loaded selected slave, and the remaining
rows are spread equally.  The metric is either the instantaneous memory
(Section 4) or the improved metric of Section 5.1 — instantaneous memory plus
the peak of the subtree currently being treated plus the predicted cost of
the next upper-layer master task.

The selection gathers the candidate metrics and locates the prefix with
numpy array operations; ``tests/test_engine_identity.py`` keeps the
historical per-candidate Python loops as an oracle and asserts both pick
identical assignments on randomized contexts.
"""

from __future__ import annotations

import numpy as np

from repro.scheduling.base import SlaveSelectionContext, SlaveSelector
from repro.scheduling.prediction import selection_metric

__all__ = ["MemorySlaveSelector"]


class MemorySlaveSelector(SlaveSelector):
    """The paper's Algorithm 1.

    Parameters
    ----------
    use_predictions:
        ``False`` reproduces the plain Section 4 strategy (instantaneous
        memory only); ``True`` uses the Section 5.1 metric, which avoids
        giving slave work to processors about to start an expensive subtree
        or master task.
    row_unit:
        Memory-to-rows conversion follows the paper: a deficit of ``D``
        entries translates into ``D / nfront`` rows (one row of the front
        occupies ``nfront`` entries in the unsymmetric storage).
    """

    name = "memory"

    def __init__(self, *, use_predictions: bool = True):
        self.use_predictions = use_predictions

    def select(self, ctx: SlaveSelectionContext) -> list[tuple[int, int]]:
        if ctx.ncb <= 0:
            return []
        cand = np.asarray(ctx.candidates, dtype=np.int64)
        if cand.size == 0:
            return []
        metric = np.asarray(
            selection_metric(ctx, use_predictions=self.use_predictions), dtype=np.float64
        )
        mem = metric[cand]
        order = np.argsort(mem, kind="stable")
        sorted_procs = cand[order]
        sorted_mem = mem[order]

        nfront = max(ctx.nfront, 1)
        # the "surface" to distribute: the slave part of the frontal matrix
        surface = float(ctx.ncb) * float(nfront)

        # Levelling cost of the prefix 1..i: sum(sorted_mem[i-1] - sorted_mem[:i]),
        # nondecreasing in i because the memories are sorted.  The closed form
        # below locates the boundary in one vectorized pass; the exact
        # summation (the historical expression, whose rounding can differ from
        # the closed form by an ulp) then settles the boundary itself.
        n = int(sorted_mem.size)

        def exact_cost(i: int) -> float:
            return float(np.sum(sorted_mem[i - 1] - sorted_mem[:i]))

        counts = np.arange(1, n + 1, dtype=np.float64)
        approx = counts * sorted_mem - np.cumsum(sorted_mem)
        violations = np.nonzero(approx > surface)[0]
        best = int(violations[0]) if violations.size else n
        if best < 1:
            best = 1
        while best < n and exact_cost(best + 1) <= surface:
            best += 1
        while best > 1 and exact_cost(best) > surface:
            best -= 1
        # granularity constraints
        max_by_rows = max(1, ctx.ncb // max(ctx.min_rows_per_slave, 1))
        best = min(best, ctx.max_slaves, max_by_rows)
        chosen = sorted_procs[:best]
        chosen_mem = sorted_mem[:best]
        level = chosen_mem[best - 1]
        return _level_rows(chosen, chosen_mem, level, nfront, ctx.ncb, best)


def _level_rows(chosen, chosen_mem, level, nfront, ncb, best) -> list[tuple[int, int]]:
    """Algorithm 1's levelling pass.

    Brings every selected slave up to the level of the most loaded selected
    one (in rows of the front), then spreads the remaining rows equitably.
    """
    rows = np.zeros(best, dtype=np.int64)
    remaining = ncb
    for j in range(best):
        deficit_rows = int((level - chosen_mem[j]) // nfront)
        give = min(deficit_rows, remaining)
        rows[j] = give
        remaining -= give
        if remaining == 0:
            break
    # remaining rows are assigned equitably: round-robin from the first
    # slave, i.e. every slave gets `share` and the first `extra` one more
    share, extra = divmod(remaining, best)
    rows += share
    rows[:extra] += 1
    return [(int(q), int(r)) for q, r in zip(chosen, rows) if r > 0]
