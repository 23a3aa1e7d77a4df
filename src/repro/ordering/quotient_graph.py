"""Quotient-graph elimination engine for minimum-degree-like orderings.

AMD (approximate minimum degree) and AMF (approximate minimum fill) — two of
the four reordering techniques used in the paper's experiments — are both
greedy bottom-up orderings driven by the *elimination graph*.  Maintaining
that graph explicitly is quadratic, so practical implementations use the
quotient-graph representation (Amestoy, Davis, Duff, SIMAX 1996): eliminated
pivots become *elements* whose adjacency is a clique, variables keep a list
of adjacent variables plus a list of adjacent elements, and degrees are
*approximated* by summing element sizes instead of forming the exact union.

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

from repro.sparse.pattern import SparsePattern

__all__ = ["EliminationGraph", "greedy_ordering"]


class EliminationGraph:
    """Quotient-graph state for greedy bottom-up orderings.

    Variables are indexed ``0..n-1``.  A *supervariable* is represented by its
    principal variable; non-principal variables record the principal they were
    merged into through ``merged_into`` and are emitted right after it in the
    final ordering.
    """

    def __init__(self, pattern: SparsePattern):
        indptr, indices = pattern.adjacency()
        self.n = pattern.n
        bounds = indptr.tolist()
        cols = indices.tolist()
        # variable -> set of adjacent variables (both principal and not, cleaned lazily)
        self.adj: list[set[int]] = [set(cols[bounds[i]:bounds[i + 1]]) for i in range(self.n)]
        # variable -> set of adjacent element ids
        self.elems: list[set[int]] = [set() for _ in range(self.n)]
        # element id -> set of principal variables of the element
        self.element_vars: dict[int, set[int]] = {}
        # element id -> total supervariable weight of its members.  The total
        # weight is conserved by supervariable merges (the absorbed weight
        # moves into the principal that stays/enters the element), so the
        # value recorded at creation time remains exact.
        self.element_size: dict[int, int] = {}
        self.next_element = 0
        # supervariable bookkeeping, in plain lists: the elimination loop
        # reads them per variable, where numpy scalar access is slow
        self.weight: list[int] = [1] * self.n  # #variables represented by this principal
        self.merged_into: list[int] = [-1] * self.n
        self.absorbed_children: list[list[int]] = [[] for _ in range(self.n)]
        self.eliminated: list[bool] = [False] * self.n
        #: variables eliminated or merged into another principal, as a set so
        #: that cleaning an adjacency is one C-level set difference
        self.dead: set[int] = set()
        # approximate external degree (in variables, counting supervariable weights)
        self.degree: list[int] = [len(a) for a in self.adj]

    # ------------------------------------------------------------------ #
    def reachable_set(self, i: int) -> set[int]:
        """Exact elimination-graph adjacency of ``i`` (principal variables)."""
        reach = self.adj[i].union(*[self.element_vars[e] for e in self.elems[i]])
        reach -= self.dead
        reach.discard(i)
        return reach

    # ------------------------------------------------------------------ #
    def eliminate(self, p: int) -> set[int]:
        """Eliminate principal variable ``p``; return the new element's variables.

        Updates the approximate degrees of the variables of the new element,
        absorbs covered elements and merges indistinguishable variables.
        """
        if p in self.dead:
            raise ValueError(f"variable {p} is not a principal live variable")
        weight = self.weight
        elems = self.elems
        element_vars = self.element_vars
        element_size = self.element_size
        lp = self.reachable_set(p)

        # create the element
        e_new = self.next_element
        self.next_element += 1
        element_vars[e_new] = set(lp)
        lp_weight = sum(map(weight.__getitem__, lp))
        element_size[e_new] = lp_weight
        self.eliminated[p] = True
        self.dead.add(p)

        # elements adjacent to p are absorbed into the new one
        for e in elems[p]:
            element_vars.pop(e, None)
            element_size.pop(e, None)
        elems[p] = set()
        self.adj[p] = set()

        # |Le ∩ Lp| for every element e touching Lp, in one pass
        overlap: dict[int, int] = {}
        for v in lp:
            # drop references to absorbed elements, count overlaps of the rest
            ev = elems[v] = element_vars.keys() & elems[v]
            w = weight[v]
            for e in ev:
                overlap[e] = overlap.get(e, 0) + w
            ev.add(e_new)

        # aggressive element absorption: an old element fully inside Lp is gone
        for e, ov in overlap.items():
            if element_size[e] == ov:
                # every variable of e is in Lp -> absorb
                for u in element_vars.pop(e):
                    elems[u].discard(e)
                del element_size[e]

        # approximate degree update for the variables of the new element:
        # |Le \ Lp| for every surviving element, 0 for the new one.  Dead
        # variables (p included) leave the variable adjacency, and neighbours
        # inside Lp are covered by the new element; what remains is the
        # external adjacency, which doubles as the supervariable key.
        outside = {e: element_size[e] - ov for e, ov in overlap.items() if e in element_size}
        outside[e_new] = 0
        adj = self.adj
        dead = self.dead
        degree = self.degree
        external: dict[int, set[int]] = {}
        for v in lp:
            live = adj[v] = adj[v] - dead
            ext = external[v] = live - lp
            degree[v] = (
                lp_weight
                - weight[v]
                + sum(map(weight.__getitem__, ext))
                + sum(map(outside.__getitem__, elems[v]))
            )

        # supervariable detection (mass elimination): variables of Lp with the
        # same quotient-graph adjacency are indistinguishable
        buckets: dict[tuple, list[int]] = {}
        for v in lp:
            buckets.setdefault((frozenset(external[v]), frozenset(elems[v])), []).append(v)
        for group in buckets.values():
            if len(group) < 2:
                continue
            group.sort()
            keep = group[0]
            for other in group[1:]:
                self._merge_variables(keep, other)

        return lp

    def _merge_variables(self, keep: int, other: int) -> None:
        """Merge supervariable ``other`` into ``keep``."""
        self.weight[keep] += self.weight[other]
        self.weight[other] = 0
        self.merged_into[other] = keep
        self.dead.add(other)
        self.absorbed_children[keep].append(other)
        # other disappears from the graph
        for e in self.elems[other]:
            vars_e = self.element_vars.get(e)
            if vars_e is not None:
                vars_e.discard(other)
                vars_e.add(keep)
        self.elems[other] = set()
        self.adj[other] = set()

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
    element ``e`` discounts ``|Le \\ v| (|Le \\ v| - 1) / 2``.
    """
    d = float(graph.degree[v])
    score = d * (d - 1.0) / 2.0
    w_v = graph.weight[v]
    element_vars = graph.element_vars
    element_size = graph.element_size
    for e in graph.elems[v]:
        vars_e = element_vars.get(e)
        if vars_e is None:
            continue
        size_e = element_size[e]
        if v in vars_e:
            size_e -= w_v
        score -= size_e * (size_e - 1.0) / 2.0
    return max(score, 0.0)


_SCORES: dict[str, Callable[[EliminationGraph, int], float]] = {
    "degree": _score_degree,
    "fill": _score_fill,
}


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
    if score not in _SCORES:
        raise ValueError(f"unknown score {score!r}; expected one of {sorted(_SCORES)}")
    score_fn = _SCORES[score]
    sym = pattern.symmetrized()
    graph = EliminationGraph(sym)
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
        if v in dead or s != cur[v]:
            continue
        lp = graph.eliminate(v)
        perm.extend(graph.expand_supervariable(v))
        for u in lp:
            if u not in dead:
                su = cur[u] = score_fn(graph, u)
                heapq.heappush(heap, (su, jitter[u], u))

    # every live variable keeps a current heap entry, and every merged one
    # is emitted with its principal, so the heap cannot run dry early
    if len(perm) != n:
        raise RuntimeError("greedy ordering lost a variable")
    return np.asarray(perm, dtype=np.int64)
