"""Child-ordering for minimal sequential stack memory (Liu's algorithm).

In the sequential multifrontal method, the order in which the children of a
node are processed changes the peak of the contribution-block stack.  Liu
(TOMS 1986, reference [15] of the paper) showed that processing children in
decreasing order of ``peak(child) - cb(child)`` minimises the peak.  MUMPS
sorts the leaves of each subtree with a variant of this algorithm, and the
paper's task pool is initialised accordingly (Section 5.2), so the
reproduction needs the same machinery both to set up realistic pools and to
compute the subtree peaks broadcast by the Section 5.1 mechanism.

The memory model is the classic one: when node ``j`` is processed, the
contribution blocks of its already-processed children sit on the stack while
the frontal matrix of ``j`` is allocated and assembled; the children CBs are
then freed and the CB of ``j`` is stacked.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "node_working_storage",
    "subtree_peaks_given_order",
    "order_children_for_memory",
    "sequential_peak_of_tree",
]


def node_working_storage(tree, j: int) -> int:
    """Working storage of node ``j`` alone: its front plus its children CBs."""
    return tree.front_entries(j) + sum(tree.cb_entries(c) for c in tree.children(j))


def subtree_peaks_given_order(tree, child_order: list[list[int]] | None = None) -> np.ndarray:
    """Stack peak of every subtree, children processed in the given order.

    ``child_order[j]`` lists the children of ``j`` in processing order; when
    ``None`` the natural (increasing index) order is used.

    The recursion is::

        peak(j) = max(  max_i ( sum_{k<i} cb(c_k) + peak(c_i) ),
                        front(j) + sum_k cb(c_k) )

    which accounts for both the deepest child excursion and the assembly step
    where the parent front coexists with all children CBs.
    """
    cb, front = tree.cb_entries_all(), tree.front_entries_all()
    if child_order is None:
        child_order = tree.child_lists()
    peaks = np.zeros(tree.nnodes, dtype=np.float64)
    for j, children in enumerate(child_order):  # children before parents (tree is postordered)
        stacked = 0.0
        peak = 0.0
        for c in children:
            peak = max(peak, stacked + peaks[c])
            stacked += cb[c]
        peak = max(peak, front[j] + stacked)
        peaks[j] = peak
    return peaks


def order_children_for_memory(tree) -> tuple[list[list[int]], np.ndarray]:
    """Liu-optimal processing order of the children of every node, and the
    stack peak of every subtree under that order.

    Children are sorted in decreasing ``peak(child) - cb(child)``; ties are
    broken by node index to keep the result deterministic.  The peaks are the
    ones :func:`subtree_peaks_given_order` gives for the returned order,
    computed in the same children-before-parents pass.
    """
    cb, front = tree.cb_entries_all(), tree.front_entries_all()
    order: list[list[int]] = []
    peaks = np.zeros(tree.nnodes, dtype=np.float64)
    for j, children in enumerate(tree.child_lists()):
        scored = sorted(
            children,
            key=lambda c: (-(peaks[c] - cb[c]), c),
        )
        order.append(scored)
        stacked = 0.0
        peak = 0.0
        for c in scored:
            peak = max(peak, stacked + peaks[c])
            stacked += cb[c]
        peak = max(peak, front[j] + stacked)
        peaks[j] = peak
    return order, peaks


def sequential_peak_of_tree(
    tree,
    *,
    child_order: list[list[int]] | str | None = "liu",
) -> tuple[float, np.ndarray]:
    """Peak of the sequential stack for the whole tree.

    Parameters
    ----------
    child_order:
        ``"liu"`` (default) uses the optimal order, ``"natural"`` / ``None``
        uses increasing node index, or an explicit per-node order list.

    Returns
    -------
    peak:
        Stack peak over the whole factorization, in entries.  When the tree
        is a forest, the roots are processed one after the other and the CBs
        of the roots (empty for true roots) do not accumulate.
    per_node:
        Peak of each subtree (same units).
    """
    if child_order == "liu":
        _, peaks = order_children_for_memory(tree)
    elif child_order == "natural" or child_order is None:
        peaks = subtree_peaks_given_order(tree)
    else:
        peaks = subtree_peaks_given_order(tree, child_order)  # explicit list
    roots = tree.roots
    if not roots:
        return 0.0, peaks
    # roots are independent: processing them one after the other, the stack
    # carries the CBs of the finished roots (zero for genuine roots whose
    # cb_order is 0, positive if the forest was cut artificially).
    stacked = 0.0
    peak = 0.0
    for r in roots:
        peak = max(peak, stacked + peaks[r])
        stacked += tree.cb_entries(r)
    return float(peak), peaks
