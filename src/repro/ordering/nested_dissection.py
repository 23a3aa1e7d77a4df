"""Recursive nested-dissection ordering (METIS substitute).

METIS is not available offline, so the reproduction ships a home-grown
recursive nested-dissection ordering.  What the paper needs from "METIS" is
the characteristic *tree topology* it induces — wide, balanced assembly trees
whose large fronts sit near the root — and that property comes from the
recursive-bisection structure, not from the quality of the separator
heuristic.  The separators here are level-set based (George-Liu): a BFS from
a pseudo-peripheral vertex splits the vertices in two halves, and the
boundary of the smaller half is taken as the separator, optionally shrunk by
a greedy minimal-cover pass.

Each dissection frame runs one BFS from its first vertex: it finds the
connected components and, when there is only one, it is the first sweep of
the pseudo-peripheral search, whose last sweep is the level structure the
separator is cut from (see :mod:`repro.ordering.rcm`).  Leaves are ordered
on their frame-local graph (:func:`~repro.ordering.quotient_graph.order_subgraph`),
gathered from the global adjacency in O(leaf nnz).
"""

from __future__ import annotations

import numpy as np

from repro.ordering.quotient_graph import order_subgraph, tie_breakers
from repro.ordering.rcm import bfs_levels, gather_rows, peripheral_level_structure
from repro.sparse.pattern import SparsePattern

__all__ = ["nested_dissection_ordering", "find_separator"]


def _connected_components(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray
) -> tuple[list[np.ndarray], tuple[np.ndarray, np.ndarray] | None]:
    """Connected components of the subgraph induced by ``vertices``.

    Components come in the order of their first vertex in ``vertices``, each
    in BFS order from that vertex.  Also returns the level structure
    ``(level, order)`` of the first BFS, rooted at ``vertices[0]``: when the
    subgraph is connected it is the first sweep of :func:`find_separator`.
    """
    inset = np.zeros(len(indptr) - 1, dtype=bool)
    inset[vertices] = True
    seen = np.zeros(len(indptr) - 1, dtype=bool)
    comps: list[np.ndarray] = []
    first = None
    for v in vertices.tolist():
        if seen[v]:
            continue
        level, comp = bfs_levels(indptr, indices, v, inset)
        if not comps:
            first = (level, comp)
        seen[comp] = True
        comps.append(comp)
    return comps, first


def find_separator(
    pattern_indptr: np.ndarray,
    pattern_indices: np.ndarray,
    vertices: np.ndarray,
    *,
    balance: float = 0.5,
    levels: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split ``vertices`` into (part_a, part_b, separator).

    A BFS level structure from a pseudo-peripheral vertex is cut at the level
    where roughly ``balance`` of the vertices have been visited; the vertices
    of the heavier side adjacent to the lighter side form the separator.
    ``levels`` is the level structure rooted at ``vertices[0]`` within
    ``vertices``, when the caller already has it (see
    :func:`_connected_components`); it is the pseudo-peripheral search's
    first sweep.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    mask = np.zeros(len(pattern_indptr) - 1, dtype=bool)
    mask[vertices] = True
    if levels is None:
        levels = bfs_levels(pattern_indptr, pattern_indices, int(vertices[0]), mask)
    level, order = peripheral_level_structure(pattern_indptr, pattern_indices, mask, *levels)
    # order only contains reachable vertices of this component
    target = max(1, int(balance * order.size))
    cut_level = int(level[order[min(target, order.size - 1)]])
    a_vertices = order[level[order] < cut_level]
    if a_vertices.size == 0 or a_vertices.size == order.size:
        # degenerate level structure (e.g. a clique): split by BFS order
        half = max(1, order.size // 2)
        a_vertices = order[:half]
    in_a = np.zeros(len(mask), dtype=bool)
    in_a[a_vertices] = True
    # separator: vertices of B adjacent to A
    b_vertices = order[~in_a[order]]
    nbrs, counts = gather_rows(pattern_indptr, pattern_indices, b_vertices)
    owner = np.repeat(np.arange(b_vertices.size), counts)
    touches_a = np.bincount(owner[in_a[nbrs]], minlength=b_vertices.size) > 0
    return a_vertices, b_vertices[~touches_a], b_vertices[touches_a]


def extract_hubs(indptr: np.ndarray, indices: np.ndarray, *, factor: float = 8.0, min_degree: int = 24) -> np.ndarray:
    """Vertices so well connected that no small separator can avoid them.

    Circuit matrices (PRE2, TWOTONE in the paper) contain a few nearly dense
    rows; level-set separators degrade badly on such *hub* vertices, so —
    like practical ND codes that compress or defer dense rows — they are
    pulled out before the dissection and ordered last (they would end up in
    the top separators anyway).
    """
    degrees = np.diff(indptr)
    n = len(degrees)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    threshold = max(float(min_degree), factor * float(np.mean(degrees)))
    hubs = np.nonzero(degrees >= threshold)[0].astype(np.int64)
    # never classify more than 2% of the vertices as hubs
    if hubs.size > max(1, n // 50):
        order = np.argsort(-degrees[hubs], kind="stable")
        hubs = hubs[order[: max(1, n // 50)]]
    return np.sort(hubs)


def nested_dissection_ordering(
    pattern: SparsePattern,
    *,
    leaf_size: int = 64,
    balance: float = 0.5,
    leaf_method: str = "degree",
    seed: int = 0,
    handle_hubs: bool = True,
) -> np.ndarray:
    """Recursive nested dissection ordering.

    Parameters
    ----------
    leaf_size:
        Subgraphs at most this large are ordered with the greedy
        minimum-degree engine instead of being dissected further.
    balance:
        Target fraction of vertices in the first part of each bisection.
    leaf_method:
        Score used for the leaf ordering (``"degree"`` or ``"fill"``).
    handle_hubs:
        Pull nearly dense rows out of the graph and order them last (see
        :func:`extract_hubs`).

    Returns ``perm`` with ``perm[k]`` = original variable eliminated at step
    ``k``; separators are ordered after the parts they separate, which places
    them near the root of the assembly tree.
    """
    indptr, indices = pattern.adjacency()
    n = pattern.n
    position = np.empty(n, dtype=np.int64)
    next_pos = 0

    hubs = extract_hubs(indptr, indices) if handle_hubs else np.empty(0, dtype=np.int64)
    non_hubs = np.setdiff1d(np.arange(n, dtype=np.int64), hubs, assume_unique=False)

    jitter = tie_breakers(seed, n)

    def order_leaf(vertices: np.ndarray) -> np.ndarray:
        return order_subgraph(indptr, indices, vertices, leaf_method, jitter)

    def assign(vertices_in_order: np.ndarray) -> None:
        nonlocal next_pos
        position[next_pos:next_pos + vertices_in_order.size] = vertices_in_order
        next_pos += vertices_in_order.size

    # Explicit recursion emulation: "dissect" frames split a vertex set,
    # "emit" frames assign a separator once both of its parts are done.
    # Hub vertices go last (they are pushed first so they are emitted last).
    pending: list[tuple[str, np.ndarray]] = []
    if hubs.size:
        pending.append(("emit", hubs))
    pending.append(("dissect", non_hubs))
    while pending:
        kind, verts = pending.pop()
        if kind == "emit":
            assign(verts)
            continue
        if verts.size == 0:
            continue
        if verts.size <= leaf_size:
            assign(order_leaf(verts))
            continue
        comps, levels = _connected_components(indptr, indices, verts)
        if len(comps) > 1:
            for comp in comps:
                pending.append(("dissect", comp))
            continue
        part_a, part_b, separator = find_separator(indptr, indices, verts, balance=balance, levels=levels)
        if separator.size == 0 or part_a.size == 0 or part_b.size == 0:
            # could not split (dense or tiny component): order directly
            assign(order_leaf(verts))
            continue
        # order: part_a, part_b, then separator — pushed in reverse
        pending.append(("emit", separator))
        pending.append(("dissect", part_b))
        pending.append(("dissect", part_a))

    if next_pos != n:
        raise RuntimeError("nested dissection failed to order every vertex")
    return position
