"""Quotient-graph elimination engine for minimum-degree-like orderings.

AMD (approximate minimum degree) and AMF (approximate minimum fill) — two of
the four reordering techniques used in the paper's experiments — are both
greedy bottom-up orderings driven by the *elimination graph*.  Maintaining
that graph explicitly is quadratic, so practical implementations use the
quotient-graph representation (Amestoy, Davis, Duff, SIMAX 1996): eliminated
pivots become *elements* whose adjacency is a clique, variables keep a list
of adjacent variables plus a list of adjacent elements, and degrees are
*approximated* by summing element sizes instead of forming the exact union.

Representation.  Every set of variables is a Python ``int`` used as a
bitset (bit ``v`` set when variable ``v`` is in the set): the adjacency of
each variable, the variables of each element, ``live`` (the principal
variables not yet eliminated) and ``heavy`` (the principals of weight > 1).
Eliminated and merged variables are never deleted from these sets; every
read masks them out with ``live``.  So the external adjacency of ``v`` is
``adj[v] & live & ~Lp``, and its weight is its ``bit_count()`` plus
``weight - 1`` over its heavy members: a few C-level big-int operations,
whatever the degree.  A big-int operation costs O(n/64) machine words,
which stays cheap at the sizes here (n ≤ ~10k at scale 2).  The adjacent
elements of a variable stay a ``set``.

The engine below implements the quotient graph with:

* approximate external degrees (the ``|Le \\ Lp|`` trick of AMD, computed in
  one pass over the freshly formed element);
* element absorption (elements entirely contained in the new one disappear);
* supervariable detection by adjacency hashing (mass elimination), which is
  what keeps FEM-style matrices with several dofs per node tractable;
* a pluggable score function so that the same machinery serves AMD
  (score = approximate degree) and AMF (score = approximate deficiency).

Selection rule.  :func:`greedy_ordering` eliminates, at every step, the live
principal variable minimising ``(score, jitter, index)``, where ``jitter`` is
a seeded per-variable tie-breaker.  The heap holds one entry per push and
``cur[v]`` records the score of the latest push of ``v``; a popped entry is
skipped when ``v`` is dead (eliminated or merged) or when its score is not
``cur[v]``.  This is exact, not lazy: a variable's score changes only when the
variable belongs to the element ``Lp`` of an elimination (its degree, weight
and adjacent elements are only touched there), and every such variable is
re-pushed with its new score right after the elimination.  Every live
variable therefore has exactly one current entry, and the heap minimum over
current entries is the argmin above.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from repro.ordering.rcm import gather_rows
from repro.sparse.pattern import SparsePattern

__all__ = ["EliminationGraph", "greedy_ordering", "induced_subgraph", "order_subgraph"]


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, in increasing order."""
    out = []
    while mask:
        top = mask.bit_length() - 1  # O(1); clearing the top bit shrinks the int
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


class EliminationGraph:
    """Quotient-graph state for greedy bottom-up orderings.

    Built from a symmetric, diagonal-free CSR adjacency (as returned by
    :meth:`SparsePattern.adjacency` or :func:`induced_subgraph`).  Variables
    are indexed ``0..n-1``; sets of variables are int bitsets (see the
    module docstring).  A *supervariable* is represented by its principal
    variable; non-principal variables record the principal they were merged
    into through ``merged_into`` and are emitted right after it in the final
    ordering.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        n = self.n = len(indptr) - 1
        # variable -> bitset of adjacent variables, read from one packed
        # little-endian byte row per variable
        width = (n + 7) // 8
        packed = np.zeros(n * width, dtype=np.uint8)
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        bit = np.left_shift(1, indices & 7).astype(np.uint8)
        np.bitwise_or.at(packed, rows * width + (indices >> 3), bit)
        buf = memoryview(packed)
        self.adj: list[int] = [int.from_bytes(buf[i:i + width], "little") for i in range(0, n * width, width)]
        # variable -> set of adjacent element ids
        self.elems: list[set[int]] = [set() for _ in range(n)]
        # element id -> bitset of its variables
        self.element_vars: dict[int, int] = {}
        # element id -> total supervariable weight of its members.  The total
        # weight is conserved by supervariable merges (the absorbed weight
        # moves into the principal that stays/enters the element), so the
        # value recorded at creation time remains exact.
        self.element_size: dict[int, int] = {}
        self.next_element = 0
        # supervariable bookkeeping, in plain lists: the elimination loop
        # reads them per variable, where numpy scalar access is slow
        self.weight: list[int] = [1] * n  # #variables represented by this principal
        self.heavy = 0  # principals of weight > 1, as a bitset
        self.merged_into: list[int] = [-1] * n
        self.absorbed_children: list[list[int]] = [[] for _ in range(n)]
        #: principal variables not yet eliminated, as a bitset
        self.live = (1 << n) - 1
        #: eliminated or merged into another principal
        self.dead: list[bool] = [False] * n
        # approximate external degree (in variables, counting supervariable weights)
        self.degree: list[int] = [a.bit_count() for a in self.adj]

    # ------------------------------------------------------------------ #
    def reachable_set(self, i: int) -> int:
        """Exact elimination-graph adjacency of ``i`` (principal variables), as a bitset."""
        reach = self.adj[i]
        for e in self.elems[i]:
            reach |= self.element_vars[e]
        return reach & self.live & ~(1 << i)

    # ------------------------------------------------------------------ #
    def eliminate(self, p: int) -> list[int]:
        """Eliminate principal variable ``p``; return the new element's variables.

        Updates the approximate degrees of the variables of the new element,
        absorbs covered elements and merges indistinguishable variables.
        """
        if self.dead[p]:
            raise ValueError(f"variable {p} is not a principal live variable")
        weight = self.weight
        elems = self.elems
        element_vars = self.element_vars
        element_size = self.element_size
        lp_mask = self.reachable_set(p)
        lp = _bits(lp_mask)

        # create the element
        e_new = self.next_element
        self.next_element += 1
        element_vars[e_new] = lp_mask
        lp_weight = sum(map(weight.__getitem__, lp))
        element_size[e_new] = lp_weight
        self.dead[p] = True
        self.live ^= 1 << p

        # elements adjacent to p are absorbed into the new one
        for e in elems[p]:
            del element_vars[e]
            del element_size[e]
        elems[p] = set()
        self.adj[p] = 0

        # |Le ∩ Lp| for every element e touching Lp, in one pass
        overlap: dict[int, int] = {}
        for v in lp:
            # drop references to absorbed elements, count overlaps of the rest
            ev = elems[v] = element_vars.keys() & elems[v]
            w = weight[v]
            for e in ev:
                overlap[e] = overlap.get(e, 0) + w
            ev.add(e_new)

        # aggressive element absorption: an old element fully inside Lp is
        # gone (its variables are all in Lp, and leave it below); the others
        # keep |Le \ Lp| variables outside, 0 for the new element
        absorbed: set[int] = set()
        outside = {e_new: 0}
        for e, ov in overlap.items():
            rest = element_size[e] - ov
            if rest:
                outside[e] = rest
            else:
                absorbed.add(e)
                del element_vars[e]
                del element_size[e]

        # approximate degree update for the variables of the new element:
        # |Le \ Lp| for every surviving element.  Dead variables (p included)
        # are masked out of the variable adjacency, and neighbours inside Lp
        # are covered by the new element; what remains is the external
        # adjacency, which doubles as the supervariable key.
        adj = self.adj
        degree = self.degree
        heavy = self.heavy
        outside_lp = self.live & ~lp_mask
        buckets: dict[tuple, list[int]] = {}
        for v in lp:
            ev = elems[v]
            if absorbed:
                ev -= absorbed
            ext = adj[v] & outside_lp
            d = lp_weight - weight[v] + ext.bit_count() + sum(map(outside.__getitem__, ev))
            todo = ext & heavy
            while todo:  # add the extra weight of the supervariables one by one
                top = todo.bit_length() - 1
                d += weight[top] - 1
                todo ^= 1 << top
            degree[v] = d
            # supervariable detection (mass elimination): variables of Lp
            # with the same quotient-graph adjacency are indistinguishable
            buckets.setdefault((ext, frozenset(ev)), []).append(v)
        for group in buckets.values():
            if len(group) > 1:
                keep = group[0]  # groups fill in increasing variable order
                for other in group[1:]:
                    self._merge_variables(keep, other)

        return lp

    def _merge_variables(self, keep: int, other: int) -> None:
        """Merge supervariable ``other`` into ``keep``."""
        self.weight[keep] += self.weight[other]
        self.weight[other] = 0
        self.heavy |= 1 << keep
        self.merged_into[other] = keep
        self.dead[other] = True
        self.live ^= 1 << other
        self.absorbed_children[keep].append(other)
        # other disappears from the graph (element bitsets mask it with live)
        self.elems[other] = set()
        self.adj[other] = 0

    # ------------------------------------------------------------------ #
    def expand_supervariable(self, principal: int) -> list[int]:
        """All original variables represented by ``principal`` (principal first)."""
        out = [principal]
        stack = list(self.absorbed_children[principal])
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(self.absorbed_children[v])
        return out


def _score_degree(graph: EliminationGraph, v: int) -> float:
    """AMD score: the approximate external degree."""
    return float(graph.degree[v])


def _score_fill(graph: EliminationGraph, v: int) -> float:
    """AMF score: approximate deficiency.

    The fill caused by eliminating ``v`` is at most ``d(d-1)/2``; edges already
    covered by adjacent elements (cliques) cause no fill, so each adjacent
    element ``e`` discounts ``|Le \\ v| (|Le \\ v| - 1) / 2`` (``v`` belongs
    to every element it is adjacent to).  Every term is an integer held
    exactly in a float, so the summation order cannot change the score.
    """
    d = float(graph.degree[v])
    score = d * (d - 1.0) / 2.0
    w_v = graph.weight[v]
    element_size = graph.element_size
    for e in graph.elems[v]:
        size_e = element_size[e] - w_v
        score -= size_e * (size_e - 1.0) / 2.0
    return max(score, 0.0)


_SCORES: dict[str, Callable[[EliminationGraph, int], float]] = {
    "degree": _score_degree,
    "fill": _score_fill,
}


def induced_subgraph(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjacency of the subgraph induced by ``vertices``, in O(its nnz).

    Gathers only the rows of ``vertices`` from the symmetric, diagonal-free
    adjacency ``(indptr, indices)`` and relabels the kept neighbours through
    the sorted vertex array.  Returns ``(sorted_vertices, sub_indptr,
    sub_indices)``; the relabelling is monotone, so rows stay sorted and the
    result equals ``submatrix(vertices).adjacency()`` of the pattern.
    """
    verts = np.sort(vertices)
    nbrs, counts = gather_rows(indptr, indices, verts)
    local = np.searchsorted(verts, nbrs)
    inside = verts[np.minimum(local, verts.size - 1)] == nbrs
    owner = np.repeat(np.arange(verts.size), counts)
    sub_indptr = np.zeros(verts.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[inside], minlength=verts.size), out=sub_indptr[1:])
    return verts, sub_indptr, local[inside]


def greedy_ordering(
    pattern: SparsePattern,
    score: str = "degree",
    *,
    seed: int = 0,
) -> np.ndarray:
    """Greedy bottom-up ordering driven by the requested score.

    Parameters
    ----------
    pattern:
        Sparse pattern (symmetrized internally).
    score:
        ``"degree"`` for AMD-style, ``"fill"`` for AMF-style.
    seed:
        Tie-breaking seed: among equal scores a per-variable jitter drawn
        from this seed decides (then the lower index), so distinct seeds
        can be used for sensitivity studies.

    Returns
    -------
    perm:
        ``perm[k]`` is the original variable eliminated at step ``k``.
    """
    return _greedy(*pattern.adjacency(), score, seed)


def order_subgraph(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray, score: str, *, seed: int = 0
) -> np.ndarray:
    """Greedy ordering of the subgraph induced by ``vertices``, as global vertex ids.

    Same result as :func:`greedy_ordering` on the principal submatrix,
    mapped back through the sorted ``vertices``, without building it.
    """
    if vertices.size <= 1:
        return vertices
    verts, sub_indptr, sub_indices = induced_subgraph(indptr, indices, vertices)
    return verts[_greedy(sub_indptr, sub_indices, score, seed)]


def _greedy(indptr: np.ndarray, indices: np.ndarray, score: str, seed: int) -> np.ndarray:
    """:func:`greedy_ordering` on a symmetric, diagonal-free CSR adjacency."""
    if score not in _SCORES:
        raise ValueError(f"unknown score {score!r}; expected one of {sorted(_SCORES)}")
    score_fn = _SCORES[score]
    graph = EliminationGraph(indptr, indices)
    n = graph.n
    jitter = (np.random.default_rng(seed).random(n) * 1e-9).tolist()

    # cur[v]: score of the latest push of v (see the module docstring)
    cur = [score_fn(graph, v) for v in range(n)]
    heap = list(zip(cur, jitter, range(n)))
    heapq.heapify(heap)
    dead = graph.dead
    perm: list[int] = []
    while heap and len(perm) < n:
        s, _, v = heapq.heappop(heap)
        if dead[v] or s != cur[v]:
            continue
        lp = graph.eliminate(v)
        perm.extend(graph.expand_supervariable(v))
        for u in lp:
            if not dead[u]:
                su = cur[u] = score_fn(graph, u)
                heapq.heappush(heap, (su, jitter[u], u))

    # every live variable keeps a current heap entry, and every merged one
    # is emitted with its principal, so the heap cannot run dry early
    if len(perm) != n:
        raise RuntimeError("greedy ordering lost a variable")
    return np.asarray(perm, dtype=np.int64)
