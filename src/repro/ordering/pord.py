"""Hybrid top-down/bottom-up ordering (PORD substitute).

PORD (Schulze, BIT 2001) couples bottom-up (minimum-degree-like) and top-down
(separator-based) ordering.  The substitute implemented here captures that
hybrid character without the original's sophisticated separator refinement:

1. the top ``nd_levels`` levels of a recursive bisection provide separators
   (as in nested dissection);
2. the interior *domains* left at the bottom are ordered with the greedy
   minimum-**fill** engine (bottom-up ingredient);
3. each separator is itself ordered with the minimum-degree engine on the
   subgraph it induces, instead of being kept in BFS order.

The resulting assembly trees sit between the METIS-substitute (wide,
balanced) and AMD/AMF (deep) topologies, which is the role PORD plays in the
paper's ordering comparison.
"""

from __future__ import annotations

import numpy as np

from repro.ordering.nested_dissection import _connected_components, extract_hubs, find_separator
from repro.ordering.quotient_graph import order_subgraph, tie_breakers
from repro.sparse.pattern import SparsePattern

__all__ = ["pord_ordering"]


def pord_ordering(
    pattern: SparsePattern,
    *,
    nd_levels: int = 4,
    leaf_size: int = 48,
    balance: float = 0.45,
    seed: int = 0,
) -> np.ndarray:
    """Hybrid multisection ordering (PORD substitute).

    Parameters
    ----------
    nd_levels:
        Number of recursive-bisection levels applied before switching to the
        bottom-up engine for the remaining domains.
    leaf_size:
        Domains at most this large are always ordered bottom-up, regardless
        of the level.
    balance:
        Bisection balance target (slightly off 0.5 on purpose: PORD's
        separators are not perfectly balanced either, and the asymmetry
        produces the intermediate tree shapes we are after).
    """
    indptr, indices = pattern.adjacency()
    n = pattern.n
    position = np.empty(n, dtype=np.int64)
    next_pos = 0

    jitter = tie_breakers(seed, n)

    def order_with(vertices: np.ndarray, score: str) -> np.ndarray:
        return order_subgraph(indptr, indices, vertices, score, jitter)

    def assign(vertices_in_order: np.ndarray) -> None:
        nonlocal next_pos
        position[next_pos:next_pos + vertices_in_order.size] = vertices_in_order
        next_pos += vertices_in_order.size

    hubs = extract_hubs(indptr, indices)
    non_hubs = np.setdiff1d(np.arange(n, dtype=np.int64), hubs, assume_unique=False)
    pending: list[tuple[str, np.ndarray, int]] = []
    if hubs.size:
        pending.append(("emit", hubs, 0))
    pending.append(("dissect", non_hubs, 0))
    while pending:
        kind, verts, level = pending.pop()
        if kind == "emit":
            # separators are ordered bottom-up (minimum degree) on their own subgraph
            assign(order_with(verts, "degree"))
            continue
        if verts.size == 0:
            continue
        if verts.size <= leaf_size or level >= nd_levels:
            assign(order_with(verts, "fill"))
            continue
        comps, levels = _connected_components(indptr, indices, verts)
        if len(comps) > 1:
            for comp in comps:
                pending.append(("dissect", comp, level))
            continue
        part_a, part_b, separator = find_separator(indptr, indices, verts, balance=balance, levels=levels)
        if separator.size == 0 or part_a.size == 0 or part_b.size == 0:
            assign(order_with(verts, "fill"))
            continue
        pending.append(("emit", separator, level))
        pending.append(("dissect", part_b, level + 1))
        pending.append(("dissect", part_a, level + 1))

    if next_pos != n:
        raise RuntimeError("pord ordering failed to order every vertex")
    return position
