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

A level structure ``(level, order)`` is computed once and handed on.
:func:`peripheral_level_structure` takes its first sweep from the caller
(the dissection's connected-components BFS is exactly that sweep) and
returns the level structure rooted at the vertex it settles on, which is
the one the separator is cut from.  :func:`pseudo_peripheral_node` is the
start-vertex form that RCM uses.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.sparse.pattern import SparsePattern

__all__ = ["rcm_ordering", "pseudo_peripheral_node", "peripheral_level_structure", "bfs_levels", "gather_rows"]


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
    unseen = mask.copy()
    unseen[start] = False
    # earliest position of each vertex among a level's candidates (a level
    # has fewer candidates than the graph has entries)
    slot = np.full(n, indices.size, dtype=np.int64)
    frontier = np.array([start], dtype=np.int64)
    levels = [frontier]
    depth = 0
    while True:
        nbrs, _ = gather_rows(indptr, indices, frontier)
        nbrs = nbrs[unseen[nbrs]]
        if nbrs.size == 0:
            break
        # the next level is the candidates' first occurrences, in order
        at = np.arange(nbrs.size, dtype=np.int64)
        np.minimum.at(slot, nbrs, at)
        frontier = nbrs[slot[nbrs] == at]
        unseen[frontier] = False
        depth += 1
        level[frontier] = depth
        levels.append(frontier)
    return level, np.concatenate(levels)


def peripheral_level_structure(
    indptr: np.ndarray, indices: np.ndarray, mask: np.ndarray, level: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """George-Liu pseudo-peripheral search, seeded with its first sweep.

    ``(level, order)`` is the :func:`bfs_levels` structure rooted at
    ``order[0]``; the search restarts from a minimum-degree vertex of the
    deepest level until the eccentricity stops growing.  Returns the level
    structure rooted at the vertex it settles on (``order[0]``), so neither
    the first sweep nor the last one is run twice.
    """
    current = int(order[0])
    last_ecc = -1
    for sweep in range(8):  # converges in a handful of sweeps
        if sweep:
            level, order = bfs_levels(indptr, indices, current, mask)
        ecc = int(level[order[-1]])
        if ecc <= last_ecc:
            return level, order
        last_ecc = ecc
        # restart from a minimum-degree vertex of the last level
        last_level = order[level[order] == ecc]
        current = int(last_level[np.argmin(indptr[last_level + 1] - indptr[last_level])])
    return bfs_levels(indptr, indices, current, mask)


def pseudo_peripheral_node(indptr: np.ndarray, indices: np.ndarray, start: int, mask: np.ndarray) -> int:
    """Vertex far away from ``start`` (George-Liu pseudo-peripheral heuristic)."""
    _, order = peripheral_level_structure(indptr, indices, mask, *bfs_levels(indptr, indices, start, mask))
    return int(order[0])


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
