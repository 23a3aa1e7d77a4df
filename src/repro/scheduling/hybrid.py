"""Hybrid workload/memory slave selection (the paper's stated future work).

The conclusion of the paper calls for "hybrid strategies well adapted at both
balancing the workload and the memory".  This selector is a straightforward
realisation used by the ablation benchmarks: candidates are ranked by a
weighted combination of their normalised memory metric and their normalised
workload, and rows are distributed with the same levelling procedure as
Algorithm 1.
"""

from __future__ import annotations

from repro.scheduling.base import SlaveSelectionContext, SlaveSelector
from repro.scheduling.memory_slave import MemorySlaveSelector
from repro.scheduling.prediction import selection_metric

__all__ = ["HybridSlaveSelector"]


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
        self._memory_selector = MemorySlaveSelector(use_predictions=use_predictions)

    def select(self, ctx: SlaveSelectionContext) -> list[tuple[int, int]]:
        if ctx.ncb <= 0 or len(ctx.candidates) == 0:
            return []
        memory = selection_metric(ctx, use_predictions=self.use_predictions)

        def normalise(values) -> list[float]:
            lo = min(values)
            span = float(max(values) - lo)
            if span <= 0:
                return [0.0] * len(values)
            return [(v - lo) / span for v in values]

        alpha = self.alpha
        beta = 1.0 - alpha
        # Reuse Algorithm 1 by presenting the combined score as the "memory"
        # metric: the levelling arithmetic then operates on the blended rank.
        scale = max(float(ctx.ncb) * float(ctx.nfront), 1.0)
        scaled = [
            (alpha * m + beta * w) * scale
            for m, w in zip(normalise(memory), normalise(ctx.load_view))
        ]
        blended_ctx = SlaveSelectionContext(
            master_proc=ctx.master_proc,
            node=ctx.node,
            npiv=ctx.npiv,
            nfront=ctx.nfront,
            ncb=ctx.ncb,
            symmetric=ctx.symmetric,
            candidates=ctx.candidates,
            memory_view=scaled,
            effective_memory_view=scaled,
            load_view=ctx.load_view,
            own_load=ctx.own_load,
            own_memory=ctx.own_memory,
            min_rows_per_slave=ctx.min_rows_per_slave,
            max_slaves=ctx.max_slaves,
        )
        return self._memory_selector.select(blended_ctx)
