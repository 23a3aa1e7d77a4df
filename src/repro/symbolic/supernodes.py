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
from typing import NamedTuple

import numpy as np

from repro.analysis.flops import front_entries

__all__ = ["fundamental_supernodes", "amalgamate", "Supernode", "Amalgamation", "AMALGAMATION"]


class Amalgamation(NamedTuple):
    """Relaxed-amalgamation knobs of :func:`amalgamate`."""

    min_pivots: int
    relax: float


#: The analysis recipe's amalgamation.  Every default reads it: the pipeline
#: and its settings, the session, the bench suites and
#: :func:`~repro.symbolic.build_assembly_tree` (hence ``repro.simulate``).
AMALGAMATION = Amalgamation(min_pivots=4, relax=0.15)


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
    first, nfront, sn_parent, membership = _fundamental(parent, colcount)
    ends = first[1:].tolist() + [len(membership)]
    supernodes = [
        Supernode(columns=list(range(a, b)), nfront=f, parent=p)
        for a, b, f, p in zip(first.tolist(), ends, nfront.tolist(), sn_parent.tolist())
    ]
    return membership, supernodes


def _fundamental(parent: np.ndarray, colcount: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`fundamental_supernodes` as arrays: ``(first, nfront, parent, membership)``.

    Column ``j`` extends the supernode of column ``j - 1`` when it is the
    parent of column ``j - 1``, has no other child, and its count is one
    less.
    A supernode's parent is the supernode of the etree parent of its last
    column.
    """
    parent = np.asarray(parent, dtype=np.int64)
    counts = np.asarray(colcount, dtype=np.int64)
    n = parent.size
    if n == 0:
        return parent, counts, parent, parent
    has_parent = parent >= 0
    if np.any(parent[has_parent] <= np.flatnonzero(has_parent)):
        raise ValueError("parent array must be postordered (parent[j] > j)")
    nchildren = np.bincount(parent[has_parent], minlength=n)
    starts = np.ones(n, dtype=bool)
    starts[1:] = (parent[:-1] != np.arange(1, n)) | (nchildren[1:] != 1) | (counts[1:] != counts[:-1] - 1)
    first = np.flatnonzero(starts)
    membership = np.cumsum(starts) - 1
    last_parent = parent[np.append(first[1:], n) - 1]
    sn_parent = np.where(last_parent >= 0, membership[last_parent], -1)
    return first, counts[first], sn_parent, membership


def amalgamate(
    supernodes: list[Supernode],
    *,
    min_pivots: int = AMALGAMATION.min_pivots,
    relax: float = AMALGAMATION.relax,
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
    same lever.

    Returns
    -------
    merged:
        New list of supernodes (postordered by construction).
    old_to_new:
        Mapping from input supernode index to output index.
    """
    columns = [list(sn.columns) for sn in supernodes]
    npiv, nfront, parent, old_to_new = _amalgamate(
        [len(c) for c in columns], [sn.nfront for sn in supernodes], [sn.parent for sn in supernodes],
        columns, min_pivots, relax, max_front, symmetric,
    )
    live = [c for c in columns if c is not None]
    merged = [Supernode(columns=c, nfront=f, parent=p) for c, f, p in zip(live, nfront, parent)]
    return merged, np.asarray(old_to_new, dtype=np.int64)


def _amalgamate(
    npiv: list[int], nfront: list[int], parent: list[int], columns: list[list[int]] | None,
    min_pivots: int, relax: float, max_front: int | None, symmetric: bool,
) -> tuple[list[int], list[int], list[int], list[int]]:
    """:func:`amalgamate` on per-supernode lists, updated in place.

    ``columns`` (optional) follows the merges: a child's columns go in front
    of its parent's, and an absorbed entry becomes ``None``.  Returns the
    surviving supernodes' ``(npiv, nfront, parent)`` and ``old_to_new``.
    """
    if min_pivots < 1:
        raise ValueError("min_pivots must be >= 1")
    if relax < 0:
        raise ValueError("relax must be >= 0")
    nsn = len(npiv)
    absorbed_into = [-1] * nsn
    zeros_acc = [0.0] * nsn  # explicit zeros accumulated in each live front
    tiny_rows = max(4 * min_pivots, 32)

    def live_of(idx: int) -> int:  # idx, or the live supernode that absorbed it
        while absorbed_into[idx] != -1:
            idx = absorbed_into[idx]
        return idx

    # children-before-parents: supernodes are already in postorder (by first
    # column), so a simple left-to-right sweep visits children first.
    for s in range(nsn):
        if parent[s] == -1:
            continue
        p = live_of(parent[s])
        # zeros introduced by the merge: every pivot column of the child is
        # extended from its own front to the merged front.
        child_npiv = npiv[s]
        merged_front = nfront[p] + child_npiv
        if max_front is not None and merged_front > max_front:
            continue
        extra_rows_per_col = merged_front - nfront[s]
        new_zeros = child_npiv * extra_rows_per_col
        if not symmetric:
            new_zeros *= 2
        merged_entries = front_entries(merged_front, symmetric)
        total_zeros = zeros_acc[s] + zeros_acc[p] + new_zeros
        relative_fill = total_zeros / max(merged_entries, 1)
        tiny = child_npiv < min_pivots and extra_rows_per_col <= tiny_rows
        if tiny or relative_fill <= relax:
            # the contribution block of a child is contained in the frontal
            # matrix of its parent, so the merged front has order
            # npiv(child) + nfront(parent) exactly
            nfront[p] = merged_front
            npiv[p] += child_npiv
            absorbed_into[s] = p
            zeros_acc[p] = total_zeros
            if columns is not None:
                # pivots of the child are eliminated first inside the merged front
                columns[p] = columns[s] + columns[p]
                columns[s] = None

    # compact the surviving supernodes, keeping postorder; an absorbed
    # supernode maps to its absorber's new index
    live = [s for s in range(nsn) if absorbed_into[s] == -1]
    new_index = {s: k for k, s in enumerate(live)}
    old_to_new = [new_index[live_of(s)] for s in range(nsn)]
    new_parent = [old_to_new[parent[s]] if parent[s] != -1 else -1 for s in live]
    return [npiv[s] for s in live], [nfront[s] for s in live], new_parent, old_to_new
