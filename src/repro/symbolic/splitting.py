"""Static splitting of nodes with large master parts (Section 6 of the paper).

The paper observes that when the *master part* of a type-2 node is very large
(e.g. 3.6 million entries for PRE2/AMF while the whole stack peak was 5.4
million), no dynamic strategy can help: the master task alone dominates the
peak of the processor it is mapped on.  The fix is static: such nodes are
split into a *chain* of smaller nodes (as in MUMPS, reference [3]), bounded
by a threshold on the master-part entries (2·10⁶ in the paper).

Splitting a node with ``npiv`` pivots and front order ``nfront`` into a chain
of ``k`` pieces with pivot counts ``p_1, …, p_k`` produces, bottom to top::

    piece 1: npiv = p_1, nfront = nfront            (keeps the original children)
    piece 2: npiv = p_2, nfront = nfront - p_1
    ...
    piece k: npiv = p_k, nfront = nfront - p_1 - … - p_{k-1}   (keeps the original parent)

Each piece's contribution block is exactly the frontal matrix of the next
piece, so the factor entries and the eliminations performed are unchanged —
only the task granularity (and therefore the scheduling freedom) changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.flops import master_entries
from repro.symbolic.assembly_tree import AssemblyTree
from repro.symbolic.etree import postorder

__all__ = ["SplitReport", "split_large_masters", "chain_pivot_counts"]


@dataclass
class SplitReport:
    """Summary of a splitting pass."""

    threshold_entries: int
    nodes_before: int = 0
    nodes_after: int = 0
    nodes_split: int = 0
    pieces_created: int = 0
    largest_master_before: int = 0
    largest_master_after: int = 0
    split_nodes: list[int] = field(default_factory=list)

    @property
    def any_split(self) -> bool:
        return self.nodes_split > 0


def chain_pivot_counts(npiv: int, nfront: int, threshold_entries: int, symmetric: bool) -> list[int]:
    """Pivot counts of the chain pieces for one node.

    Pieces are sized so that each piece's master part stays below the
    threshold.  The search is greedy bottom-up: each piece takes as many
    pivots as possible while respecting the threshold for the *current* front
    order (which shrinks as pivots are consumed by lower pieces).
    """
    if threshold_entries <= 0:
        raise ValueError("threshold_entries must be positive")
    if npiv < 1 or nfront < npiv:
        raise ValueError("invalid front geometry")

    counts: list[int] = []
    remaining = npiv
    nf = nfront
    while remaining > 0:
        # largest p <= remaining with master_entries(p, nf) <= threshold
        p = remaining
        if master_entries(p, nf, symmetric) > threshold_entries:
            lo, hi = 1, remaining
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if master_entries(mid, nf, symmetric) <= threshold_entries:
                    lo = mid
                else:
                    hi = mid - 1
            p = max(1, lo)
        counts.append(p)
        remaining -= p
        nf -= p
    return counts


def split_large_masters(
    tree: AssemblyTree,
    threshold_entries: int,
    *,
    only_candidates: set[int] | None = None,
) -> tuple[AssemblyTree, SplitReport]:
    """Split every node whose master part exceeds ``threshold_entries``.

    Parameters
    ----------
    tree:
        Input assembly tree (not modified).
    threshold_entries:
        Maximum allowed master-part entries (the paper uses 2·10⁶ on the full
        size problems; the experiment harness scales it with the problem).
    only_candidates:
        When given, restrict splitting to this set of node indices (e.g. the
        nodes that the static mapping would make type 2).

    Returns
    -------
    (new_tree, report)
        The new tree is re-postordered; the report records what was split.
    """
    report = SplitReport(threshold_entries=threshold_entries, nodes_before=tree.nnodes)
    masters = tree.master_entries_all().tolist()
    report.largest_master_before = int(max(masters)) if masters else 0

    # Build an intermediate node list: (npiv, nfront, old_parent, first_piece_of_old_parent?)
    # We materialise pieces per original node, chain them, then re-link.
    npiv_new: list[int] = []
    nfront_new: list[int] = []
    # parent reference uses (old_node, piece_index) addressing, resolved later
    piece_index_of_old: list[list[int]] = []  # old node -> list of new indices (bottom..top)
    vars_new: list[tuple[int, ...]] | None = [] if tree.variables is not None else None

    for i in range(tree.nnodes):
        npiv = int(tree.npiv[i])
        nfront = int(tree.nfront[i])
        do_split = masters[i] > threshold_entries and npiv > 1
        if only_candidates is not None and i not in only_candidates:
            do_split = False
        if do_split:
            counts = chain_pivot_counts(npiv, nfront, threshold_entries, tree.symmetric)
        else:
            counts = [npiv]
        if len(counts) > 1:
            report.nodes_split += 1
            report.pieces_created += len(counts) - 1
            report.split_nodes.append(i)
        pieces: list[int] = []
        nf = nfront
        consumed = 0
        for p in counts:
            pieces.append(len(npiv_new))
            npiv_new.append(p)
            nfront_new.append(nf)
            if vars_new is not None:
                vs = tree.variables[i][consumed:consumed + p]
                vars_new.append(tuple(vs))
            consumed += p
            nf -= p
        piece_index_of_old.append(pieces)

    # Parents: bottom piece inherits the original children (handled through the
    # parent pointers of the children); upper pieces chain onto each other; the
    # top piece points to the bottom piece of the original parent.
    parent_new = np.full(len(npiv_new), -1, dtype=np.int64)
    for i in range(tree.nnodes):
        pieces = piece_index_of_old[i]
        for a, b in zip(pieces[:-1], pieces[1:]):
            parent_new[a] = b
        old_parent = int(tree.parent[i])
        if old_parent >= 0:
            parent_new[pieces[-1]] = piece_index_of_old[old_parent][0]

    # The interleaved construction keeps children before parents only within a
    # chain; re-postorder globally to restore the AssemblyTree invariant.
    order = postorder(parent_new)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    npiv_arr = np.asarray(npiv_new, dtype=np.int64)[order]
    nfront_arr = np.asarray(nfront_new, dtype=np.int64)[order]
    parent_arr = np.array(
        [rank[parent_new[j]] if parent_new[j] >= 0 else -1 for j in order], dtype=np.int64
    )
    vars_arr = None
    if vars_new is not None:
        vars_arr = [vars_new[j] for j in order]

    new_tree = AssemblyTree(
        npiv_arr,
        nfront_arr,
        parent_arr,
        symmetric=tree.symmetric,
        nvars=tree.nvars,
        variables=vars_arr,
        name=tree.name,
    )
    report.nodes_after = new_tree.nnodes
    report.largest_master_after = int(new_tree.master_entries_all().max())
    return new_tree, report

