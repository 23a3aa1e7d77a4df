"""Reverse Cuthill-McKee ordering.

Not used in the paper's tables, but a useful extra baseline: RCM produces
band-like factors and path-like assembly trees, the opposite extreme of
nested dissection, which makes it handy in tests and in the ordering-impact
example (the paper stresses that the tree topology is driven by the
ordering).

The module also hosts the breadth-first search that the METIS and PORD
substitutes build their level-set separators on.  :func:`bfs_levels` is
level-synchronous: it gathers the unseen, in-mask neighbours of a whole
level at once, in frontier × CSR order, and the next level is their first
occurrences in that order.  This is exactly the order a FIFO queue
produces: the queue pops the level's vertices in the order they were
appended, scans each one's CSR row in turn and appends every neighbour the
first time it is seen, and vertices of earlier levels are already marked.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.sparse.pattern import SparsePattern

__all__ = ["rcm_ordering", "pseudo_peripheral_node", "bfs_levels", "gather_rows"]


def gather_rows(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated CSR rows of ``rows`` (in order), plus each row's length."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    pos = np.arange(int(ends[-1]) if ends.size else 0, dtype=np.int64)
    pos += np.repeat(starts - (ends - counts), counts)
    return indices[pos], counts


def bfs_levels(indptr: np.ndarray, indices: np.ndarray, start: int, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """BFS level of every reachable vertex (−1 for unreachable), plus the visit order."""
    n = len(indptr) - 1
    level = np.full(n, -1, dtype=np.int64)
    level[start] = 0
    frontier = np.array([start], dtype=np.int64)
    levels = [frontier]
    depth = 0
    while True:
        nbrs, _ = gather_rows(indptr, indices, frontier)
        nbrs = nbrs[mask[nbrs] & (level[nbrs] < 0)]
        if nbrs.size == 0:
            break
        _, first = np.unique(nbrs, return_index=True)
        first.sort()
        frontier = nbrs[first]
        depth += 1
        level[frontier] = depth
        levels.append(frontier)
    return level, np.concatenate(levels)


def pseudo_peripheral_node(indptr: np.ndarray, indices: np.ndarray, start: int, mask: np.ndarray) -> int:
    """Vertex far away from ``start`` (George-Liu pseudo-peripheral heuristic)."""
    current = start
    last_ecc = -1
    for _ in range(8):  # converges in a handful of sweeps
        level, order = bfs_levels(indptr, indices, current, mask)
        ecc = int(level[order[-1]])
        if ecc <= last_ecc:
            break
        last_ecc = ecc
        # restart from a minimum-degree vertex of the last level
        last_level = order[level[order] == ecc]
        current = int(last_level[np.argmin(indptr[last_level + 1] - indptr[last_level])])
    return current


def rcm_ordering(pattern: SparsePattern) -> np.ndarray:
    """Reverse Cuthill-McKee ordering of the symmetrized pattern."""
    indptr, indices = pattern.adjacency()
    n = pattern.n
    visited = np.zeros(n, dtype=bool)
    mask = np.ones(n, dtype=bool)
    order: list[int] = []
    degrees = np.diff(indptr)
    for comp_start in np.argsort(degrees):
        comp_start = int(comp_start)
        if visited[comp_start]:
            continue
        start = pseudo_peripheral_node(indptr, indices, comp_start, mask & ~visited)
        # Cuthill-McKee from the peripheral node
        visited[start] = True
        order.append(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            neigh = [int(indices[p]) for p in range(indptr[u], indptr[u + 1]) if not visited[int(indices[p])]]
            neigh.sort(key=lambda v: (degrees[v], v))
            for v in neigh:
                visited[v] = True
                order.append(v)
                queue.append(v)
    return np.asarray(order[::-1], dtype=np.int64)
