"""Sequential memory simulation of the multifrontal factorization.

Section 2 of the paper recalls that the multifrontal method uses three areas
of storage: the factors (monotonically growing), the stack of contribution
blocks, and the current frontal matrix.  This module replays a sequential
postorder traversal of an assembly tree and records the evolution of the
three areas, producing both the peak values and a full trace (used by the
figure benchmarks and by the examples to visualise the stack evolution that
motivates the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.symbolic.liu_order import order_children_for_memory

__all__ = [
    "MemoryTrace",
    "sequential_memory_trace",
    "sequential_stack_peak",
    "subtree_stack_peaks",
]


@dataclass
class MemoryTrace:
    """Time series of the three memory areas during a factorization replay.

    One sample is recorded after every memory-changing event.  All values are
    in entries.
    """

    events: list[str] = field(default_factory=list)
    nodes: list[int] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    stack: list[float] = field(default_factory=list)
    active: list[float] = field(default_factory=list)

    def record(self, event: str, node: int, factors: float, stack: float, active: float) -> None:
        self.events.append(event)
        self.nodes.append(node)
        self.factors.append(factors)
        self.stack.append(stack)
        self.active.append(active)

    @property
    def working(self) -> np.ndarray:
        """Stack plus active front — the paper's "stack memory" metric."""
        return np.asarray(self.stack, dtype=np.float64) + np.asarray(self.active, dtype=np.float64)

    @property
    def peak_working(self) -> float:
        return float(self.working.max()) if self.events else 0.0

    @property
    def peak_stack(self) -> float:
        return float(max(self.stack)) if self.stack else 0.0

    @property
    def final_factors(self) -> float:
        return float(self.factors[-1]) if self.factors else 0.0

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {
            "factors": np.asarray(self.factors, dtype=np.float64),
            "stack": np.asarray(self.stack, dtype=np.float64),
            "active": np.asarray(self.active, dtype=np.float64),
            "working": self.working,
        }

    def __len__(self) -> int:
        return len(self.events)


def sequential_memory_trace(
    tree,
    *,
    child_order: list[list[int]] | str | None = "liu",
) -> MemoryTrace:
    """Replay a sequential factorization and record the memory evolution.

    The replay is a depth-first postorder traversal of the tree.  For every
    node: the frontal matrix is allocated (active area), the children CBs are
    assembled and freed from the stack, the partial factorization moves the
    factor part to the factor area, and the node's CB is pushed on the stack.
    """
    if child_order == "liu":
        order, _ = order_children_for_memory(tree)
    elif child_order == "natural" or child_order is None:
        order = [tree.children(j) for j in range(tree.nnodes)]
    else:
        order = child_order

    trace = MemoryTrace()
    factors = 0.0
    stack = 0.0

    # iterative depth-first traversal to survive very deep AMD/AMF trees
    for root in tree.roots:
        stack_frames: list[tuple[int, int]] = [(root, 0)]
        while stack_frames:
            node, child_idx = stack_frames.pop()
            children = order[node]
            if child_idx < len(children):
                stack_frames.append((node, child_idx + 1))
                stack_frames.append((children[child_idx], 0))
                continue
            # post-visit of `node`
            active = float(tree.front_entries(node))
            trace.record("allocate", node, factors, stack, active)
            for c in children:
                stack -= tree.cb_entries(c)
            trace.record("assemble", node, factors, stack, active)
            factors += tree.factor_entries(node)
            stack += tree.cb_entries(node)
            trace.record("factorize", node, factors, stack, 0.0)
    return trace


def sequential_stack_peak(
    tree,
    *,
    child_order: list[list[int]] | str | None = "liu",
) -> float:
    """Peak of the working storage (stack + active front) of a sequential run."""
    return sequential_memory_trace(tree, child_order=child_order).peak_working


def subtree_stack_peaks(tree) -> np.ndarray:
    """Stack peak of every subtree (entries) under Liu's child order, used for
    subtree-cost broadcasts.

    This is the quantity a processor sends to the others when it starts a
    leaf subtree in the Section 5.1 mechanism.
    """
    return order_children_for_memory(tree)[1]
