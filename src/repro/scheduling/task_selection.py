"""Task selection in the local pool: LIFO baseline and Algorithm 2.

The pool of ready tasks is managed as a stack (Section 5.2, Figure 7): the
original MUMPS strategy always activates the task on top, which yields a
depth-first traversal of the tree.  Algorithm 2 keeps that behaviour inside
subtrees but, for upper-layer tasks, refuses to activate a task that would
push the processor's memory above the peak observed so far, preferring a
subtree task instead (Figure 8).
"""

from __future__ import annotations

from repro.scheduling.base import TaskSelectionContext, TaskSelector

__all__ = ["LifoTaskSelector", "FifoTaskSelector", "MemoryAwareTaskSelector"]


class LifoTaskSelector(TaskSelector):
    """Original MUMPS behaviour: always take the top of the stack."""

    name = "lifo"

    def select(self, ctx: TaskSelectionContext) -> int:
        if not ctx.pool:
            raise ValueError("cannot select from an empty pool")
        return len(ctx.pool) - 1


class FifoTaskSelector(TaskSelector):
    """Breadth-first variant (not used by the paper; kept for comparison).

    Processing the *oldest* ready task keeps many tree branches active at the
    same time, which is exactly what the paper warns against ("going too far
    from the depth-first traversal could ... increase the global memory
    usage").
    """

    name = "fifo"

    def select(self, ctx: TaskSelectionContext) -> int:
        if not ctx.pool:
            raise ValueError("cannot select from an empty pool")
        return 0


class MemoryAwareTaskSelector(TaskSelector):
    """The paper's Algorithm 2.

    1. If the task on top of the pool belongs to the subtree currently being
       processed, activate it (subtrees are memory-critical and must be
       finished depth-first).
    2. Otherwise scan the pool from the top: activate the first task whose
       memory cost added to the current memory (including the peak of the
       current subtree) does not exceed the peak observed since the beginning
       of the factorization; while scanning, any task that belongs to a
       subtree is taken immediately.
    3. If no task qualifies, fall back to the top of the pool.
    """

    name = "memory-aware"

    def select(self, ctx: TaskSelectionContext) -> int:
        if not ctx.pool:
            raise ValueError("cannot select from an empty pool")
        top = len(ctx.pool) - 1
        top_task = ctx.pool[top]
        if ctx.current_subtree >= 0 and top_task.in_subtree == ctx.current_subtree:
            return top
        current = ctx.current_memory + (
            ctx.current_subtree_peak if ctx.current_subtree >= 0 else 0.0
        )
        for index in range(top, -1, -1):
            task = ctx.pool[index]
            if task.memory_cost + current <= ctx.observed_peak:
                return index
            if task.in_subtree >= 0:
                return index
        return top
