"""Column counts of the Cholesky factor.

``colcount[j]`` is the number of nonzeros of column ``j`` of ``L`` (diagonal
included) for the symmetrized pattern.  The column count of the first column
of a fundamental supernode is exactly the order of that supernode's frontal
matrix, which is why these counts drive all the memory and flop models of the
reproduction.

Two implementations are provided:

* :func:`column_counts` — the Gilbert–Ng–Peyton skeleton/least-common-ancestor
  algorithm (as in CSparse ``cs_counts``), running in nearly ``O(nnz(A))``.
  It batches the per-nonzero skeleton test, the first-descendant computation
  and the final subtree accumulation into numpy array operations (the
  analysis phase grows with the matrix, so this is a hot path of every
  sweep); the test suite keeps the per-nonzero loop as its oracle and checks
  exact equality over random patterns;
* :func:`column_counts_naive` — an ``O(nnz(L))`` row-subtree traversal used as
  an oracle in the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.flops import partial_factorization_flops
from repro.sparse.pattern import SparsePattern
from repro.symbolic.etree import elimination_tree, postorder

__all__ = ["column_counts", "column_counts_naive", "symbolic_fill"]


def column_counts(
    pattern: SparsePattern,
    parent: np.ndarray | None = None,
    post: np.ndarray | None = None,
) -> np.ndarray:
    """Column counts of ``L`` (diagonal included) for the symmetrized pattern."""
    sym = pattern.symmetrized().with_diagonal()
    if parent is None:
        parent = elimination_tree(sym)
    if post is None:
        post = postorder(parent)
    return _column_counts_vectorized(sym, parent, post)


def _doublings(step: np.ndarray) -> list[np.ndarray]:
    """``step``, ``step∘step``, ``step⁴``, … up to a fixed point (pointer jumping).

    ``step`` maps a forest's nodes one hop towards its fixed points (roots
    for parent pointers, leaves for first-child pointers); entry ``l`` is
    the ``2**l``-th hop, clamped at the fixed point.
    """
    hops = [step]
    for _ in range(step.size.bit_length() + 1):  # 2**l hops cover any path
        nxt = hops[-1][hops[-1]]
        if np.array_equal(nxt, hops[-1]):
            return hops
        hops.append(nxt)
    raise ValueError("parent and post do not describe a forest in postorder")


def _column_counts_vectorized(sym: SparsePattern, parent: np.ndarray, post: np.ndarray) -> np.ndarray:
    """Numpy-batched Gilbert–Ng–Peyton column counts.

    The scalar algorithm walks the nonzeros one by one, maintaining a
    per-row ``maxfirst`` running maximum (the skeleton test) and a union-find
    over processed columns (the LCA of consecutive skeleton leaves).  Both
    collapse into batched passes over the tree in postorder positions, where
    a subtree is the contiguous range ``[first[k], k]`` and positions grow
    towards the root:

    * ``first`` (the first descendant) follows the smallest child down to a
      leaf, and is found for every node at once by pointer jumping;
    * the skeleton test is a *segmented running maximum*: group the strict
      lower-triangle nonzeros by row, order each group by column postorder,
      and an entry is a skeleton leaf exactly when its ``first`` value
      exceeds the running maximum of its predecessors in the row — one
      ``np.maximum.accumulate`` over all nonzeros at once;
    * the ``delta[q] -= 1`` correction at the least common ancestor of two
      consecutive leaves: the LCA is the lowest ancestor of the earlier leaf
      whose position reaches the later one's, found for every pair at once
      by a binary-lifting descent;
    * the final subtree accumulation is one prefix sum plus a
      range-difference gather.

    Integer arithmetic throughout — the result is identical to the
    per-nonzero loop (the test suite's oracle), element for element.
    """
    n = sym.n
    ipost = np.empty(n, dtype=np.int64)
    ipost[post] = np.arange(n, dtype=np.int64)
    # up[k]: position of the parent of the column at position k (a root
    # points at itself); child[k]: position of its first child (a leaf
    # points at itself)
    positions = np.arange(n, dtype=np.int64)
    parent_post = parent[post]
    has_parent = parent_post >= 0
    up = positions.copy()
    up[has_parent] = ipost[parent_post[has_parent]]
    child = positions.copy()
    np.minimum.at(child, up[has_parent], positions[has_parent])
    first = _doublings(child)[-1][ipost]  # per column, as a position

    delta = (first == ipost).astype(np.int64)  # a leaf is its own first descendant
    np.subtract.at(delta, parent[parent >= 0], 1)  # every child discounts its parent

    # strict lower triangle (the scalar loop skips i <= j), grouped by row
    # with each group ordered by column postorder position — the order the
    # scalar loop reaches them
    row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(sym.indptr))
    lower = row_of > sym.indices
    i_arr = row_of[lower]
    j_arr = sym.indices[lower]
    if i_arr.size:
        # one int64 key per entry sorts by (row, column postorder position)
        key = i_arr * n + ipost[j_arr]
        key.sort()
        i_sorted, k_sorted = np.divmod(key, n)
        j_sorted = post[k_sorted]
        f_sorted = first[j_sorted]

        # segmented running max of `first` per row: the per-row offset i*n
        # makes segments monotone across rows, so one global accumulate works
        seg = i_sorted * np.int64(n) + f_sorted
        prev_max = np.empty_like(seg)
        prev_max[0] = np.iinfo(np.int64).min
        np.maximum.accumulate(seg[:-1], out=prev_max[1:])
        leaf = seg > prev_max

        delta += np.bincount(j_sorted[leaf], minlength=n)  # each skeleton leaf counts in its column

        # consecutive leaves of one row: the second of each pair needs the
        # delta[LCA] -= 1 correction
        leaf_i = i_sorted[leaf]
        leaf_k = k_sorted[leaf]
        pairs = np.flatnonzero(leaf_i[1:] == leaf_i[:-1]) + 1
        if pairs.size:
            later = leaf_k[pairs]
            lca = leaf_k[pairs - 1]
            # climb from the earlier leaf to its highest ancestor still
            # before the later leaf; the LCA is that node's parent
            for hop in reversed(_doublings(up)):
                reach = hop[lca]
                lca = np.where(reach < later, reach, lca)
            delta -= np.bincount(post[up[lca]], minlength=n)

    # subtree sums via the postorder prefix sum: descendants of j occupy the
    # contiguous postorder range [first[j], ipost[j]]
    csum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(delta[post], out=csum[1:])
    return csum[ipost + 1] - csum[first]


def column_counts_naive(
    pattern: SparsePattern,
    parent: np.ndarray | None = None,
) -> np.ndarray:
    """Reference column counts via explicit row-subtree traversals (slow)."""
    sym = pattern.symmetrized().with_diagonal()
    n = sym.n
    if parent is None:
        parent = elimination_tree(sym)
    colcount = np.ones(n, dtype=np.int64)
    mark = np.full(n, -1, dtype=np.int64)
    indptr = sym.indptr
    indices = sym.indices
    for i in range(n):
        mark[i] = i
        for p in range(indptr[i], indptr[i + 1]):
            j = int(indices[p])
            if j >= i:
                continue
            while mark[j] != i:
                colcount[j] += 1
                mark[j] = i
                j = int(parent[j])
    return colcount


def symbolic_fill(pattern: SparsePattern) -> dict[str, float]:
    """Summary statistics of the symbolic factorization of ``pattern``.

    Returns the number of nonzeros of ``L`` (``nnz_L``), the fill ratio with
    respect to the lower triangle of ``A`` and the factorization flop count
    for the symmetric (LDLᵀ) model — a convenient one-stop query used by the
    ordering quality tests and the ordering-comparison example.
    """
    sym = pattern.symmetrized().with_diagonal()
    parent = elimination_tree(sym)
    post = postorder(parent)
    counts = column_counts(sym, parent, post)
    nnz_l = int(counts.sum())
    # lower triangle of A including the diagonal
    rows = np.repeat(np.arange(sym.n, dtype=np.int64), np.diff(sym.indptr))
    nnz_lower_a = int(np.count_nonzero(rows >= sym.indices))
    # column j is a one-pivot front of order counts[j]
    flops = float(partial_factorization_flops(np.ones_like(counts), counts, True).sum())
    return {
        "nnz_L": float(nnz_l),
        "fill_ratio": float(nnz_l) / float(max(nnz_lower_a, 1)),
        "flops": flops,
    }
