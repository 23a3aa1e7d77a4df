"""Geist-Ng construction of the leaf-subtree layer.

The bottom of the assembly tree is cut into *leaf subtrees* (simply called
"subtrees" in the paper), each processed entirely by one processor using only
tree parallelism.  The cut layer — often called L0 — is found with the
top-down algorithm of Geist & Ng (reference [10] of the paper): starting from
the roots, the node whose subtree carries the largest work is repeatedly
replaced by its children until the resulting subtree set can be balanced
across the processors within a tolerance.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = ["geist_ng_layer"]


def _lpt_imbalance(costs: list[float], nprocs: int) -> float:
    """Imbalance (max bin / average bin) of an LPT packing of ``costs``.

    The bins live in a heap of ``(load, index)``: its minimum is the least
    loaded bin, the lowest index among equal loads.
    """
    if not costs:
        return 1.0
    heap = [(0.0, i) for i in range(nprocs)]
    for c in sorted(costs, reverse=True):
        load, i = heap[0]
        heapq.heapreplace(heap, (load + c, i))
    # back in index order: numpy's pairwise bins.sum() fixes the total's rounding
    bins = np.zeros(nprocs, dtype=np.float64)
    for load, i in heap:
        bins[i] = load
    total = float(bins.sum())
    if total <= 0:
        return 1.0
    avg = total / nprocs
    return float(bins.max()) / max(avg, 1e-300)


def geist_ng_layer(
    tree,
    nprocs: int,
    *,
    imbalance_tolerance: float = 1.25,
    min_subtrees_per_proc: float = 1.0,
    max_iterations: int | None = None,
) -> list[int]:
    """Roots of the leaf subtrees (the L0 layer).

    Parameters
    ----------
    tree:
        Assembly tree (provides ``roots``, ``children``, ``subtree_flops``).
    nprocs:
        Number of processors.
    imbalance_tolerance:
        Stop refining once an LPT packing of the subtree costs achieves
        ``max/avg`` below this value (and there are enough subtrees).
    min_subtrees_per_proc:
        Require at least ``nprocs * min_subtrees_per_proc`` subtrees before
        accepting a layer, so every processor receives some leaf work.
    max_iterations:
        Safety bound on the refinement loop (defaults to the node count).

    Returns
    -------
    List of node indices, each the root of one leaf subtree.  The union of
    those subtrees never includes an ancestor of another subtree root.
    """
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    layer: list[int] = list(tree.roots)
    if not layer:
        return []
    if nprocs == 1:
        return layer
    costs = {r: tree.subtree_flops(r) for r in layer}
    limit = max_iterations if max_iterations is not None else tree.nnodes + 1

    for _ in range(limit):
        enough = len(layer) >= int(np.ceil(nprocs * min_subtrees_per_proc))
        if enough and _lpt_imbalance([costs[r] for r in layer], nprocs) <= imbalance_tolerance:
            break
        # replace the most expensive splittable node by its children
        order = sorted(layer, key=lambda r: -costs[r])
        splittable = next((r for r in order if tree.children(r)), None)
        if splittable is None:
            break
        layer.remove(splittable)
        for c in tree.children(splittable):
            costs[c] = tree.subtree_flops(c)
            layer.append(c)
        costs.pop(splittable, None)
    return sorted(layer)
