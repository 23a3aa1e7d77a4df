"""Algorithm 1: memory-based slave selection (Section 4, improved in 5.1).

The master sorts the candidate slaves by (believed) memory occupation and
chooses the smallest prefix that can absorb the rows of the front while
*levelling* the memory: each selected slave first receives enough rows to
bring it up to the level of the most loaded selected slave, and the remaining
rows are spread equally.  The metric is either the instantaneous memory
(Section 4) or the improved metric of Section 5.1 — instantaneous memory plus
the peak of the subtree currently being treated plus the predicted cost of
the next upper-layer master task.

The selection works on plain Python floats (a few dozen candidates, where
numpy's call overhead would dominate) and keeps numpy's rounding where the
historical numpy kernel summed; ``tests/test_engine_identity.py`` keeps the
per-candidate loops as an oracle and asserts both pick identical assignments
on randomized and adversarial contexts.
"""

from __future__ import annotations

from repro.scheduling.base import SlaveSelectionContext, SlaveSelector, pairwise_sum
from repro.scheduling.prediction import selection_metric

__all__ = ["MemorySlaveSelector", "level_select"]


class MemorySlaveSelector(SlaveSelector):
    """The paper's Algorithm 1.

    Parameters
    ----------
    use_predictions:
        ``False`` reproduces the plain Section 4 strategy (instantaneous
        memory only); ``True`` uses the Section 5.1 metric, which avoids
        giving slave work to processors about to start an expensive subtree
        or master task.
    """

    name = "memory"

    def __init__(self, *, use_predictions: bool = True):
        self.use_predictions = use_predictions

    def select(self, ctx: SlaveSelectionContext) -> list[tuple[int, int]]:
        cand = ctx.candidates
        if ctx.ncb <= 0 or len(cand) == 0:
            return []
        metric = selection_metric(ctx, use_predictions=self.use_predictions)
        return level_select(
            cand, [metric[q] for q in cand], ctx.ncb, ctx.nfront,
            ctx.min_rows_per_slave, ctx.max_slaves,
        )


def level_select(cand, mem, ncb, nfront, min_rows, max_slaves) -> list[tuple[int, int]]:
    """Algorithm 1 on ``mem``, the metric of each of the (non-empty)
    ``cand``: the longest prefix of the candidates sorted by ``mem`` whose
    levelling cost fits in the front's surface, levelled by
    :func:`_level_rows`."""
    # a stable sort: ties keep the candidate order
    order = sorted(range(len(mem)), key=mem.__getitem__)
    sorted_mem = [mem[i] for i in order]

    nfront = max(nfront, 1)
    # the "surface" to distribute: the slave part of the frontal matrix
    surface = float(ncb) * float(nfront)

    # Levelling cost of the prefix 1..i: sum(sorted_mem[i-1] - sorted_mem[:i]),
    # nondecreasing in i because the memories are sorted.  The closed form
    # i * sorted_mem[i-1] - (running sum) locates the boundary in one pass;
    # the exact summation (the historical expression, whose rounding can
    # differ from the closed form) settles the boundary itself.
    n = len(sorted_mem)

    def exact_cost(i: int) -> float:
        top = sorted_mem[i - 1]
        return pairwise_sum([top - m for m in sorted_mem[:i]])

    best = n
    running = 0.0
    below = cost = 0.0
    size = 0.0  # the prefix length i + 1, as a float
    for i, m in enumerate(sorted_mem):
        running += m
        size += 1.0
        cost = size * m - running
        if cost > surface:
            best = i
            break
        below = cost
    # ``below`` is the closed form of prefix ``best``, ``cost`` that of
    # ``best + 1`` (when best < n).  Both differ from the exact sums by at
    # most _cost_slack, so when they clear the surface by more, the exact
    # sums land on the same side and the boundary needs no recount.
    if best >= 1:
        slack = _cost_slack(best + 1, sorted_mem[0], sorted_mem[min(best, n - 1)])
        certain = (best == n or cost - slack > surface) and (
            best == 1 or below + slack < surface
        )
    else:
        best = 1
        certain = False
    if not certain:
        while best < n and exact_cost(best + 1) <= surface:
            best += 1
        while best > 1 and exact_cost(best) > surface:
            best -= 1
    # granularity constraints
    max_by_rows = max(1, ncb // max(min_rows, 1))
    best = min(best, max_slaves, max_by_rows)
    chosen = [cand[i] for i in order[:best]]
    return _level_rows(chosen, sorted_mem, sorted_mem[best - 1], nfront, ncb, best)


def _cost_slack(i: int, lo: float, hi: float) -> float:
    """A bound on |closed form - exact sum| of the levelling cost of ``i``
    sorted values within ``[lo, hi]``.

    Let ``x = max(|lo|, |hi|)``, ``u = 2**-53`` and ``g(k) = k u / (1 - k u)``
    (Higham's gamma).  The true cost is at most ``2 i x``; the exact sum (the
    ``i`` differences, each rounded once, summed in any order) lies within
    ``g(i) * 2 i x`` of it and the closed form (``i * top`` minus a running
    sum) within ``g(i + 2) * 2 i x``.  So the two differ by at most
    ``4 i g(i + 2) x <= 8 i (i + 2) u x``; ``4e-15`` is 4.5 times ``8 u``,
    which also covers the rounding of this product.  Inf or nan memories
    give no finite bound: the comparisons against it fail and the exact sums
    decide.
    """
    x = max(abs(lo), abs(hi))
    return float(i * (i + 2)) * x * 4e-15


def _level_rows(chosen, chosen_mem, level, nfront, ncb, best) -> list[tuple[int, int]]:
    """Algorithm 1's levelling pass over the first ``best`` slaves.

    Brings every selected slave up to the level of the most loaded selected
    one (in rows of the front), then spreads the remaining rows equitably.
    The memory-to-rows conversion follows the paper: a deficit of ``D``
    entries translates into ``D / nfront`` rows (one row of the front
    occupies ``nfront`` entries in the unsymmetric storage).
    """
    rows = [0] * best
    remaining = ncb
    for j in range(best):
        give = int((level - chosen_mem[j]) // nfront)
        if give > remaining:
            give = remaining
        rows[j] = give
        remaining -= give
        if remaining == 0:
            break
    # remaining rows are assigned equitably: round-robin from the first
    # slave, i.e. every slave gets `share` and the first `extra` one more
    share, extra = divmod(remaining, best)
    if remaining:
        rows = [r + share + (j < extra) for j, r in enumerate(rows)]
    return [(int(q), r) for q, r in zip(chosen, rows) if r > 0]
