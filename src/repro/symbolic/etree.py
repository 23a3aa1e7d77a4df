"""Elimination tree and tree utilities.

The elimination tree (etree) of a symmetric pattern is the transitive
reduction of the filled graph: ``parent[j]`` is the smallest row index
``i > j`` such that ``L[i, j] != 0``.  It is the skeleton of the assembly
tree: the multifrontal method performs a postorder traversal of it
(Section 2 of the paper).

The implementation follows Liu's algorithm with path compression
(J. W. H. Liu, "The role of elimination trees in sparse factorization",
SIMAX 1990), which runs in nearly ``O(nnz)``.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.pattern import SparsePattern

__all__ = [
    "elimination_tree",
    "postorder",
    "children_lists",
    "tree_levels",
    "tree_depth",
    "subtree_sizes",
    "is_postordered",
]


def elimination_tree(pattern: SparsePattern) -> np.ndarray:
    """Elimination tree of the (symmetrized) pattern.

    Returns
    -------
    parent:
        Array of length ``n``; ``parent[j]`` is the etree parent of column
        ``j`` or ``-1`` when ``j`` is a root.
    """
    return _liu_etree(pattern.symmetrized())


def _liu_etree(sym: SparsePattern) -> np.ndarray:
    """Liu's algorithm on a pattern that stores both triangles."""
    n = sym.n
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(sym.indptr))
    lower = sym.indices < rows
    parent = [-1] * n
    # ancestor[r] is n while r is the root of its current subtree; rows are
    # visited in increasing order, so "a >= i" means a root or already on
    # row i's path
    ancestor = [n] * n
    for i, j in zip(rows[lower].tolist(), sym.indices[lower].tolist()):
        # walk from j to the root of its current subtree, compressing
        a = ancestor[j]
        while a < i:
            ancestor[j] = i
            j = a
            a = ancestor[j]
        if a == n:
            ancestor[j] = i
            parent[j] = i
    return np.asarray(parent, dtype=np.int64)


def children_lists(parent: np.ndarray) -> list[list[int]]:
    """Children of every node, ordered by increasing child index."""
    children: list[list[int]] = [[] for _ in range(len(parent))]
    for j, p in enumerate(np.asarray(parent).tolist()):
        if p >= 0:
            children[p].append(j)
    return children


def postorder(parent: np.ndarray) -> np.ndarray:
    """Postordering of the forest described by ``parent``.

    Returns ``post`` such that ``post[k]`` is the node visited at step ``k``
    of a depth-first postorder traversal (children before parents, children
    visited in increasing index order).
    """
    n = len(parent)
    children = children_lists(parent)
    # a preorder that visits roots and children in decreasing index order,
    # reversed, is the postorder that visits them in increasing order; the
    # explicit stack avoids recursion limits on deep AMD/AMF trees
    stack = np.nonzero(np.asarray(parent) < 0)[0].tolist()
    order: list[int] = []
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(children[node])
    if len(order) != n:
        raise ValueError("parent array does not describe a forest (cycle detected)")
    order.reverse()
    return np.asarray(order, dtype=np.int64)


def is_postordered(parent: np.ndarray) -> bool:
    """True when every node has an index smaller than its parent."""
    n = len(parent)
    for j in range(n):
        p = int(parent[j])
        if p >= 0 and p <= j:
            return False
    return True


def subtree_sizes(parent: np.ndarray) -> np.ndarray:
    """Number of nodes of the subtree rooted at each node."""
    n = len(parent)
    size = np.ones(n, dtype=np.int64)
    for j in postorder(parent):
        p = int(parent[j])
        if p >= 0:
            size[p] += size[j]
    return size


def tree_levels(parent: np.ndarray) -> np.ndarray:
    """Depth of every node (roots have depth 0)."""
    n = len(parent)
    level = np.full(n, -1, dtype=np.int64)
    order = postorder(parent)[::-1]  # parents before children
    for j in order:
        p = int(parent[j])
        level[j] = 0 if p < 0 else level[p] + 1
    return level


def tree_depth(parent: np.ndarray) -> int:
    """Maximum depth of the forest (1 for a single-node tree, 0 if empty)."""
    if len(parent) == 0:
        return 0
    return int(tree_levels(parent).max()) + 1
