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

The kernel (:func:`_greedy`, one loop over local lists) implements the
quotient graph with:

* approximate external degrees (the ``|Le \\ Lp|`` trick of AMD, computed in
  one pass over the freshly formed element);
* element absorption (elements entirely contained in the new one disappear);
* supervariable detection by adjacency hashing (mass elimination), which is
  what keeps FEM-style matrices with several dofs per node tractable;
* two inlined scores: AMD's approximate degree and AMF's approximate
  deficiency.  Every term of either is an integer, so scores are exact.

Selection rule.  :func:`greedy_ordering` eliminates, at every step, the live
principal variable minimising ``(score, jitter, index)``, where ``jitter`` is
a seeded per-variable tie-breaker.  A variable's score changes only when it
belongs to the element ``Lp`` of an elimination (its degree, weight and
adjacent elements are only touched there), and ``cur[v]`` always holds the
current score.  The heap is a lazy increase-key queue: every live variable
keeps an entry whose score is at most ``cur[v]``.  A rescored variable is
pushed only when its score drops; a popped entry whose score has since risen
is pushed back at ``cur[v]``, and one of a dead (eliminated or merged)
variable is dropped.  So the first popped entry whose score equals
``cur[v]`` is no greater than any live variable's current key: it is the
exact argmin above, and orderings do not depend on the laziness.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.ordering.rcm import gather_rows
from repro.sparse.pattern import SparsePattern

__all__ = ["greedy_ordering", "induced_subgraph", "order_subgraph"]


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, in increasing order."""
    out = []
    while mask:
        top = mask.bit_length() - 1  # O(1); clearing the top bit shrinks the int
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


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




_SCORES = ("degree", "fill")


def _greedy(indptr: np.ndarray, indices: np.ndarray, score: str, seed: int) -> np.ndarray:
    """:func:`greedy_ordering` on a symmetric, diagonal-free CSR adjacency."""
    if score not in _SCORES:
        raise ValueError(f"unknown score {score!r}; expected one of {sorted(_SCORES)}")
    fill = score == "fill"
    n = len(indptr) - 1
    # variable -> bitset of adjacent variables, read from one packed
    # little-endian byte row per variable
    width = (n + 7) // 8
    packed = np.zeros(n * width, dtype=np.uint8)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    bit = np.left_shift(1, indices & 7).astype(np.uint8)
    np.bitwise_or.at(packed, rows * width + (indices >> 3), bit)
    buf = memoryview(packed)
    adj = [int.from_bytes(buf[i:i + width], "little") for i in range(0, n * width, width)]
    elems: list[set[int]] = [set() for _ in range(n)]  # variable -> adjacent element ids
    element_vars: dict[int, int] = {}  # element id -> bitset of its variables
    # element id -> total weight of its members.  Supervariable merges
    # conserve it (the absorbed weight moves into the principal that stays
    # in the element), so the value recorded at creation stays exact.
    element_size: dict[int, int] = {}
    weight = [1] * n  # variables represented by each principal
    heavy = 0  # principals of weight > 1, as a bitset
    merged: list[list[int]] = [[] for _ in range(n)]  # variables merged into each principal
    live = (1 << n) - 1  # principals not yet eliminated, as a bitset
    dead = [False] * n  # eliminated or merged into another principal
    degree = [a.bit_count() for a in adj]  # approximate external degree

    # cur[v]: the current score of v, never above its heap entry's (see the
    # module docstring)
    cur = [d * (d - 1) // 2 for d in degree] if fill else degree[:]
    jitter = (np.random.default_rng(seed).random(n) * 1e-9).tolist()
    heap = list(zip(cur, jitter, range(n)))
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    perm: list[int] = []
    e_new = -1
    while heap and len(perm) < n:
        s, j, p = heappop(heap)
        if dead[p]:
            continue
        if s != cur[p]:  # the score rose since this push: requeue at the current one
            heappush(heap, (cur[p], j, p))
            continue

        # eliminate p: the elements adjacent to p are absorbed into the new
        # element, whose variables Lp are everything p reaches
        lp_mask = adj[p]
        for e in elems[p]:
            lp_mask |= element_vars.pop(e)
            del element_size[e]
        elems[p] = set()
        adj[p] = 0
        dead[p] = True
        live ^= 1 << p
        lp_mask &= live
        lp = _bits(lp_mask)
        e_new += 1
        element_vars[e_new] = lp_mask
        lp_weight = element_size[e_new] = sum(map(weight.__getitem__, lp))

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
        outside_lp = live & ~lp_mask
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
                heavy |= 1 << keep
                for other in group[1:]:
                    # other disappears from the graph (bitsets mask it with live)
                    weight[keep] += weight[other]
                    merged[keep].append(other)
                    dead[other] = True
                    live ^= 1 << other
                    elems[other] = set()
                    adj[other] = 0

        # p is emitted with every variable merged into it, principal first
        perm.append(p)
        stack = list(merged[p])
        while stack:
            v = stack.pop()
            perm.append(v)
            stack.extend(merged[v])

        # rescore the survivors of Lp: only they changed
        for u in lp:
            if dead[u]:
                continue
            su = degree[u]
            if fill:
                # approximate deficiency: eliminating u fills at most
                # d(d-1)/2 edges, less the ones already inside each adjacent
                # element (a clique; u belongs to each of them)
                w = weight[u]
                su = su * (su - 1) // 2
                for e in elems[u]:
                    k = element_size[e] - w
                    su -= k * (k - 1) // 2
                if su < 0:
                    su = 0
            if su < cur[u]:
                heappush(heap, (su, jitter[u], u))
            cur[u] = su

    # every live variable keeps a heap entry at or below its score, and every
    # merged one is emitted with its principal, so the heap cannot run dry early
    if len(perm) != n:
        raise RuntimeError("greedy ordering lost a variable")
    return np.asarray(perm, dtype=np.int64)
