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

The recursive bisection is the METIS substitute's round driver,
:func:`~repro.ordering.nested_dissection.dissect`: every round, one
multi-source BFS serves all open frames, which is exact because open frames
are pairwise disjoint and non-adjacent (components are; the two parts of a
split are, the separator being exactly the far-side vertices next to the
near part; and frames inside non-adjacent frames stay so).  PORD differs
only in its leaf test (``size <= leaf_size`` or ``nd_levels`` splits above
the frame; components keep their parent's depth) and in ordering every
separator, and the hubs, with the minimum-degree engine.
"""

from __future__ import annotations

import numpy as np

from repro.ordering.nested_dissection import dissect, extract_hubs
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
    jitter = tie_breakers(seed, pattern.n)
    return dissect(
        indptr,
        indices,
        extract_hubs(indptr, indices),
        balance=balance,
        is_leaf=lambda size, depth: size <= leaf_size or depth >= nd_levels,
        order_leaf=lambda vertices: order_subgraph(indptr, indices, vertices, "fill", jitter),
        # separators (and the hubs) are ordered bottom-up on their own subgraph
        order_separator=lambda vertices: order_subgraph(indptr, indices, vertices, "degree", jitter),
    )
