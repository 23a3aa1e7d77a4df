"""Fundamental supernodes and relaxed amalgamation.

A *fundamental supernode* is a maximal set of consecutive columns (in a
postordered matrix) sharing the same factor structure below the diagonal;
grouping columns into supernodes is what turns the scalar elimination tree
into the assembly tree of frontal matrices.  Real multifrontal codes (MUMPS
included) additionally perform *relaxed amalgamation*: small children are
merged into their parents even though this introduces a few explicit zeros,
because larger fronts give better BLAS-3 efficiency and a coarser task graph.
The amalgamation parameters directly control the granularity of the tree that
the scheduling experiments run on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["fundamental_supernodes", "amalgamate", "Supernode"]


@dataclass
class Supernode:
    """A supernode over a postordered scalar elimination tree.

    Attributes
    ----------
    columns:
        Postordered column indices grouped in this supernode (the fully
        summed variables of the front).
    nfront:
        Order of the frontal matrix (``len(columns)`` pivots plus the
        contribution-block order).
    parent:
        Index of the parent supernode, or ``-1`` for a root.
    """

    columns: list[int]
    nfront: int
    parent: int = -1

    @property
    def npiv(self) -> int:
        return len(self.columns)

    @property
    def cb_order(self) -> int:
        return self.nfront - self.npiv


def fundamental_supernodes(
    parent: np.ndarray,
    colcount: np.ndarray,
) -> tuple[np.ndarray, list[Supernode]]:
    """Detect fundamental supernodes of a *postordered* elimination tree.

    Parameters
    ----------
    parent:
        Postordered etree (``parent[j] > j`` for every non-root).
    colcount:
        Column counts of ``L`` (diagonal included).

    Returns
    -------
    membership:
        ``membership[j]`` is the supernode index of column ``j``.
    supernodes:
        List of :class:`Supernode`, ordered by their first column (hence in
        postorder of the supernodal tree).
    """
    n = len(parent)
    if n == 0:
        return np.empty(0, dtype=np.int64), []
    parent_list = np.asarray(parent).tolist()
    counts = np.asarray(colcount).tolist()
    nchildren = [0] * n
    for j, p in enumerate(parent_list):
        if p >= 0:
            if p <= j:
                raise ValueError("parent array must be postordered (parent[j] > j)")
            nchildren[p] += 1

    membership = [0] * n
    supernodes: list[Supernode] = []
    for j in range(n):
        extend = (
            j > 0
            and parent_list[j - 1] == j
            and nchildren[j] == 1
            and counts[j] == counts[j - 1] - 1
        )
        if extend:
            supernodes[-1].columns.append(j)
        else:
            supernodes.append(Supernode(columns=[j], nfront=counts[j]))
        membership[j] = len(supernodes) - 1

    # supernodal tree: parent supernode = supernode of the etree parent of the
    # last column of this supernode
    for sn in supernodes:
        p = parent_list[sn.columns[-1]]
        sn.parent = membership[p] if p >= 0 else -1
    return np.asarray(membership, dtype=np.int64), supernodes


def _merge_child_into_parent(supernodes: list[Supernode], child: int, parent: int) -> None:
    """Merge supernode ``child`` into ``parent`` in place.

    The contribution block of a child is contained in the frontal matrix of
    its parent, so the merged front has order
    ``npiv(child) + nfront(parent)`` exactly (no approximation involved).
    """
    c = supernodes[child]
    p = supernodes[parent]
    p.nfront = p.nfront + c.npiv
    # pivots of the child are eliminated first inside the merged front
    p.columns = c.columns + p.columns
    c.columns = []
    c.parent = parent  # keep pointing at the absorber for membership rebuild


def amalgamate(
    supernodes: list[Supernode],
    *,
    min_pivots: int = 4,
    relax: float = 0.15,
    max_front: int | None = None,
    symmetric: bool = True,
) -> tuple[list[Supernode], np.ndarray]:
    """Relaxed amalgamation of a supernodal tree.

    A child is merged into its parent when either its pivot count is below
    ``min_pivots`` (tiny tasks are never worth keeping) or the *cumulative*
    fraction of explicit zeros in the merged front — zeros inherited from
    earlier merges of both sides plus the zeros introduced by this merge —
    stays below ``relax``.  Tracking cumulative zeros (as CHOLMOD's relaxed
    supernodes do) is what prevents long chains from collapsing into one
    giant dense front: each extra merge keeps paying for the zeros of all the
    previous ones.  ``max_front`` optionally forbids merges that would create
    a front larger than the given order.

    The parameters follow the spirit of MUMPS' amalgamation control; the
    paper's trees come from MUMPS' analysis, so the reproduction exposes the
    same lever (see the amalgamation ablation benchmark).

    Returns
    -------
    merged:
        New list of supernodes (postordered by construction).
    old_to_new:
        Mapping from input supernode index to output index.
    """
    if min_pivots < 1:
        raise ValueError("min_pivots must be >= 1")
    if relax < 0:
        raise ValueError("relax must be >= 0")
    nsn = len(supernodes)
    work = [Supernode(columns=list(s.columns), nfront=s.nfront, parent=s.parent) for s in supernodes]
    absorbed_into = [-1] * nsn
    zeros_acc = [0.0] * nsn  # explicit zeros accumulated in each live front

    def find_live_parent(idx: int) -> int:
        p = work[idx].parent
        while p != -1 and absorbed_into[p] != -1:
            p = absorbed_into[p]
        return p

    # children-before-parents: supernodes are already in postorder (by first
    # column), so a simple left-to-right sweep visits children first.
    for s in range(nsn):
        if absorbed_into[s] != -1:
            continue
        p = find_live_parent(s)
        if p == -1:
            continue
        child = work[s]
        par = work[p]
        # zeros introduced by the merge: every pivot column of the child is
        # extended from its own front to the merged front.
        merged_front = par.nfront + child.npiv
        if max_front is not None and merged_front > max_front:
            continue
        extra_rows_per_col = merged_front - child.nfront
        new_zeros = child.npiv * extra_rows_per_col
        if symmetric:
            merged_entries = merged_front * (merged_front + 1) // 2
        else:
            new_zeros *= 2
            merged_entries = merged_front * merged_front
        total_zeros = zeros_acc[s] + zeros_acc[p] + new_zeros
        relative_fill = total_zeros / max(merged_entries, 1)
        tiny = child.npiv < min_pivots and extra_rows_per_col <= max(4 * min_pivots, 32)
        if tiny or relative_fill <= relax:
            _merge_child_into_parent(work, s, p)
            absorbed_into[s] = p
            zeros_acc[p] = total_zeros

    # compact the surviving supernodes, keeping postorder
    old_to_new = [-1] * nsn
    merged: list[Supernode] = []
    for s in range(nsn):
        if absorbed_into[s] != -1:
            continue
        old_to_new[s] = len(merged)
        merged.append(work[s])
    # map absorbed supernodes to their absorber's new index
    for s in range(nsn):
        if absorbed_into[s] != -1:
            a = absorbed_into[s]
            while absorbed_into[a] != -1:
                a = absorbed_into[a]
            old_to_new[s] = old_to_new[a]
    # fix parents
    for s in range(nsn):
        if absorbed_into[s] != -1:
            continue
        p = find_live_parent(s)
        merged[old_to_new[s]].parent = old_to_new[p] if p != -1 else -1
    return merged, np.asarray(old_to_new, dtype=np.int64)
