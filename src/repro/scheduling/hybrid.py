"""Hybrid workload/memory slave selection (the paper's stated future work).

The conclusion of the paper calls for "hybrid strategies well adapted at both
balancing the workload and the memory".  This selector is a straightforward
realisation: candidates are ranked by a weighted combination of their
normalised memory metric and their normalised workload, and rows are
distributed with the same levelling procedure as Algorithm 1.
"""

from __future__ import annotations

from repro.scheduling.base import SlaveSelectionContext, SlaveSelector
from repro.scheduling.memory_slave import level_select
from repro.scheduling.prediction import selection_metric

__all__ = ["HybridSlaveSelector"]


def _normalised(values, cand) -> list[float]:
    """``values`` of ``cand`` mapped onto [0, 1] by the range over all processors."""
    lo = min(values)
    span = float(max(values) - lo)
    if span <= 0:
        return [0.0] * len(cand)
    return [(values[q] - lo) / span for q in cand]


class HybridSlaveSelector(SlaveSelector):
    """Rank slaves by ``alpha * memory + (1 - alpha) * workload`` (both normalised).

    ``alpha = 1`` recovers the memory-based behaviour, ``alpha = 0`` a purely
    workload-driven ranking (with Algorithm 1's row levelling kept in both
    cases so that only the *ranking* changes).
    """

    name = "hybrid"

    def __init__(self, alpha: float = 0.5, *, use_predictions: bool = True):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be within [0, 1]")
        self.alpha = alpha
        self.use_predictions = use_predictions

    def select(self, ctx: SlaveSelectionContext) -> list[tuple[int, int]]:
        cand = ctx.candidates
        if ctx.ncb <= 0 or len(cand) == 0:
            return []
        memory = selection_metric(ctx, use_predictions=self.use_predictions)
        alpha = self.alpha
        beta = 1.0 - alpha
        # Algorithm 1 levels the combined score as if it were the memory
        # metric: the levelling arithmetic then operates on the blended rank.
        scale = max(float(ctx.ncb) * float(ctx.nfront), 1.0)
        scaled = [
            (alpha * m + beta * w) * scale
            for m, w in zip(_normalised(memory, cand), _normalised(ctx.load_view, cand))
        ]
        return level_select(
            cand, scaled, ctx.ncb, ctx.nfront, ctx.min_rows_per_slave, ctx.max_slaves
        )
