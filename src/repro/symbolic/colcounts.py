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


def _first_descendants(parent: np.ndarray, post: np.ndarray) -> np.ndarray:
    """Postorder index of the first descendant of every node.

    The same amortized-O(n) climb the scalar algorithm uses; kept scalar
    because each node is visited exactly once across all climbs.
    """
    n = parent.size
    first = [-1] * n
    parent_list = parent.tolist()
    post_list = post.tolist()
    for k in range(n):
        j = post_list[k]
        while j != -1 and first[j] == -1:
            first[j] = k
            j = parent_list[j]
    return np.asarray(first, dtype=np.int64)


def _column_counts_vectorized(sym: SparsePattern, parent: np.ndarray, post: np.ndarray) -> np.ndarray:
    """Numpy-batched Gilbert–Ng–Peyton column counts.

    The scalar algorithm walks the nonzeros one by one, maintaining a
    per-row ``maxfirst`` running maximum (the skeleton test) and a union-find
    over processed columns (the LCA of consecutive skeleton leaves).  Both
    collapse into batched passes:

    * the skeleton test is a *segmented running maximum*: group the strict
      lower-triangle nonzeros by row, order each group by column postorder,
      and an entry is a skeleton leaf exactly when its ``first`` value
      exceeds the running maximum of its predecessors in the row — one
      ``np.maximum.accumulate`` over all nonzeros at once;
    * the ``delta[q] -= 1`` corrections at the least common ancestor of
      consecutive leaves are replayed as an offline (Tarjan) LCA pass: the
      union-find links columns lazily in postorder, so the Python loop does
      O(n + #leaf pairs) trivial steps instead of running per nonzero;
    * the final subtree accumulation exploits that a subtree occupies the
      contiguous postorder range ``[first[j], ipost[j]]``: the per-node
      parent additions become one prefix sum plus a range-difference gather.

    Integer arithmetic throughout — the result is identical to the
    per-nonzero loop (the test suite's oracle), element for element.
    """
    n = sym.n
    ipost = np.empty(n, dtype=np.int64)
    ipost[post] = np.arange(n, dtype=np.int64)
    first = _first_descendants(parent, post)

    delta = (first == ipost).astype(np.int64)  # a leaf is its own first descendant
    has_parent = parent >= 0
    np.subtract.at(delta, parent[has_parent], 1)  # every child discounts its parent

    # strict lower triangle (the scalar loop skips i <= j), grouped by row
    # with each group ordered by column postorder position — the order the
    # scalar loop reaches them
    row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(sym.indptr))
    lower = row_of > sym.indices
    i_arr = row_of[lower]
    j_arr = sym.indices[lower]
    if i_arr.size:
        k_arr = ipost[j_arr]
        order = np.lexsort((k_arr, i_arr))
        i_sorted = i_arr[order]
        j_sorted = j_arr[order]
        k_sorted = k_arr[order]
        f_sorted = first[j_sorted]

        # segmented running max of `first` per row: the per-row offset i*n
        # makes segments monotone across rows, so one global accumulate works
        seg = i_sorted * np.int64(n) + f_sorted
        prev_max = np.empty_like(seg)
        prev_max[0] = np.iinfo(np.int64).min
        np.maximum.accumulate(seg[:-1], out=prev_max[1:])
        leaf = seg > prev_max

        leaf_j = j_sorted[leaf]
        delta += np.bincount(leaf_j, minlength=n)  # each skeleton leaf counts in its column

        # consecutive leaves of one row: the second of each pair needs the
        # delta[LCA] -= 1 correction
        leaf_i = i_sorted[leaf]
        leaf_k = k_sorted[leaf]
        subsequent = np.empty(leaf_i.shape, dtype=bool)
        if leaf_i.size:
            subsequent[0] = False
            subsequent[1:] = leaf_i[1:] == leaf_i[:-1]
        pairs = np.nonzero(subsequent)[0]
        if pairs.size:
            # replay in column (postorder) processing order: exactly the
            # union-find state the scalar loop would have at each event
            ev_order = np.argsort(leaf_k[pairs], kind="stable")
            ev_k = leaf_k[pairs][ev_order].tolist()
            ev_jprev = leaf_j[pairs - 1][ev_order].tolist()
            ancestor = list(range(n))
            post_list = post.tolist()
            parent_list = parent.tolist()
            ptr = 0
            for k, jprev in zip(ev_k, ev_jprev):
                while ptr < k:  # lazily link the columns processed before k
                    node = post_list[ptr]
                    pn = parent_list[node]
                    if pn != -1:
                        ancestor[node] = pn
                    ptr += 1
                root = jprev
                while ancestor[root] != root:
                    root = ancestor[root]
                q = jprev  # path compression
                while q != root:
                    q, ancestor[q] = ancestor[q], root
                delta[root] -= 1  # avoid double counting below the LCA

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
    flops = float(np.sum(counts.astype(np.float64) ** 2))
    return {
        "nnz_L": float(nnz_l),
        "fill_ratio": float(nnz_l) / float(max(nnz_lower_a, 1)),
        "flops": flops,
    }
