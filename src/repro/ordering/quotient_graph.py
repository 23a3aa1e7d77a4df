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
  one pass over the freshly formed element).  As in AMD's ``w`` array, the
  counts live in *element marks*: one list ``wmark`` indexed by element id
  (element ids are pivot counts, so below ``n``, and ``element_vars`` /
  ``element_size`` are plain lists too).  A mark is ``-1`` between pivots;
  the first variable of ``Lp`` to touch an element sets it to ``|Le|``
  less its weight, every later one subtracts its own, the degree loop
  reads ``|Le \\ Lp|`` from it, and the list of touched elements resets
  the marks after that loop;
* element absorption (elements entirely contained in the new one disappear);
* supervariable detection by hashing the external adjacency (mass
  elimination), which is what keeps FEM-style matrices with several dofs
  per node tractable: each bucket is keyed on the first variable seen, a
  group forms only when a second one collides with it, and a collision is
  settled by comparing element sets;
* two inlined scores: AMD's approximate degree and AMF's approximate
  deficiency.  Every term of either is an integer, so scores are exact.

Selection rule.  :func:`greedy_ordering` eliminates, at every step, the live
principal variable minimising ``(score, jitter, index)``, where ``jitter`` is
a seeded per-variable tie-breaker.  One int key packs that triple exactly:
the score above the bits of the variable's rank in (jitter, index) order.
A variable's score changes only when it belongs to the element ``Lp`` of an
elimination, and ``cur[v]`` always holds its current key.  The heap is a
lazy increase-key queue: every live variable has one tracked entry,
``entry[v] <= cur[v]``.  A rescored variable is pushed (and tracked) only
when its key drops below its tracked entry; a popped tracked entry whose key
has since risen is pushed back at ``cur[v]``, and any other popped entry
(untracked, or of a dead variable) is dropped.  So the first popped tracked
entry equal to ``cur[v]`` is no greater than any live variable's current
key: it is the exact argmin above, and orderings do not depend on the
laziness.  The degree score is final once the degree loop has computed it,
so it is pushed there; a variable merged later in the same pivot leaves
only a dead entry, dropped on pop.  The fill score also reads the element
sizes after absorption, so it is rescored in a second loop.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.ordering.rcm import gather_rows
from repro.sparse.pattern import SparsePattern

__all__ = ["greedy_ordering", "induced_subgraph", "order_subgraph", "tie_breakers"]


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
    """Edges of the subgraph induced by ``vertices``, in O(its nnz).

    Gathers only the rows of ``vertices`` from the symmetric, diagonal-free
    adjacency ``(indptr, indices)`` and relabels the kept neighbours through
    the sorted vertex array.  Returns ``(sorted_vertices, rows, cols)``; the
    relabelling is monotone, so the edges come sorted by (row, col), as the
    entries of ``submatrix(vertices).adjacency()`` of the pattern.
    """
    verts = np.sort(vertices)
    nbrs, counts = gather_rows(indptr, indices, verts)
    local = np.searchsorted(verts, nbrs)
    inside = verts[np.minimum(local, verts.size - 1)] == nbrs
    rows = np.repeat(np.arange(verts.size, dtype=np.int64), counts)
    return verts, rows[inside], local[inside]


def _row_bits(n: int, rows: np.ndarray, cols: np.ndarray) -> list[int]:
    """Adjacency bitsets (bit ``j`` of entry ``i`` for edge ``(i, j)``) of an
    ``n``-vertex graph, from its edges sorted by (row, col)."""
    words = (n + 63) >> 6  # uint64 words per row
    packed = np.zeros(n * words, dtype="<u8")
    if rows.size:
        # the edges landing in one word are contiguous: OR them together
        slot = rows * words + (cols >> 6)
        starts = np.flatnonzero(np.diff(slot, prepend=-1))
        bits = np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64))
        packed[slot[starts]] = np.bitwise_or.reduceat(bits, starts)
    if words == 1:
        return packed.tolist()
    buf = memoryview(packed).cast("B")
    width = words * 8
    return [int.from_bytes(buf[i:i + width], "little") for i in range(0, n * width, width)]


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
    indptr, indices = pattern.adjacency()
    rows = np.repeat(np.arange(pattern.n, dtype=np.int64), np.diff(indptr))
    return _greedy(_row_bits(pattern.n, rows, indices), score, tie_breakers(seed, pattern.n))


def order_subgraph(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray, score: str, jitter: list[float]
) -> np.ndarray:
    """Greedy ordering of the subgraph induced by ``vertices``, as global vertex ids.

    Same result as :func:`greedy_ordering` on the principal submatrix,
    mapped back through the sorted ``vertices``, without building it;
    ``jitter`` is ``tie_breakers(seed, m)`` for some ``m >= vertices.size``.
    """
    if vertices.size <= 1:
        return vertices
    verts, rows, cols = induced_subgraph(indptr, indices, vertices)
    return verts[_greedy(_row_bits(verts.size, rows, cols), score, jitter)]


def tie_breakers(seed: int, n: int) -> list[float]:
    """The seeded per-variable tie-breakers ``default_rng(seed).random(n) * 1e-9``.

    The first ``m`` of them are ``tie_breakers(seed, m)`` (one draw per
    variable from the same stream), so one list serves every subgraph of an
    ordering.
    """
    return (np.random.default_rng(seed).random(n) * 1e-9).tolist()


_SCORES = ("degree", "fill")


def _greedy(adj: list[int], score: str, jitter: list[float]) -> np.ndarray:
    """:func:`greedy_ordering` on adjacency bitsets (symmetric, diagonal-free).

    ``adj[v]`` has bit ``u`` set for every neighbour ``u`` of ``v``; the
    list is consumed.  ``jitter[v]`` breaks ties (see :func:`tie_breakers`).
    """
    if score not in _SCORES:
        raise ValueError(f"unknown score {score!r}; expected one of {sorted(_SCORES)}")
    fill = score == "fill"
    n = len(adj)
    elems: list[set[int]] = [set() for _ in range(n)]  # variable -> adjacent element ids
    # element ids are pivot counts, so below n: element id -> bitset of its
    # variables (0 once absorbed)
    element_vars = [0] * n
    # element id -> total weight of its members.  Supervariable merges
    # conserve it (the absorbed weight moves into the principal that stays
    # in the element), so the value recorded at creation stays exact.
    element_size = [0] * n
    # element id -> |Le \ Lp| while pivot p is processed, -1 otherwise
    wmark = [-1] * n
    weight = [1] * n  # variables represented by each principal
    heavy = 0  # principals of weight > 1, as a bitset
    merged: list[list[int]] = [[] for _ in range(n)]  # variables merged into each principal
    live = (1 << n) - 1  # principals not yet eliminated, as a bitset
    dead = [False] * n  # eliminated or merged into another principal
    degree = [a.bit_count() for a in adj]  # approximate external degree

    # a key packs (score, jitter, index) into one int: the score above
    # ``shift`` bits, the variable's rank in (jitter, index) order below
    byrank = sorted(range(n), key=jitter.__getitem__)  # stable: equal jitters by index
    rank = [0] * n
    for r, v in enumerate(byrank):
        rank[v] = r
    shift = n.bit_length()
    low_bits = (1 << shift) - 1
    # cur[v]: the current key of v; entry[v]: the key of its one tracked heap
    # entry, never above cur[v] (see the module docstring)
    cur = [((d * (d - 1) // 2 if fill else d) << shift) | rank[v] for v, d in enumerate(degree)]
    entry = cur[:]
    heap = cur[:]
    heapq.heapify(heap)
    heappop, heappush, heapreplace = heapq.heappop, heapq.heappush, heapq.heapreplace
    perm: list[int] = []
    e_new = -1
    while heap and len(perm) < n:
        k = heap[0]
        p = byrank[k & low_bits]
        if dead[p] or k != entry[p]:  # an eliminated, merged or untracked entry
            heappop(heap)
            continue
        if k != cur[p]:  # the score rose since this push: requeue at the current one
            entry[p] = cur[p]
            heapreplace(heap, cur[p])
            continue
        heappop(heap)

        # eliminate p: the elements adjacent to p are absorbed into the new
        # element, whose variables Lp are everything p reaches
        lp_mask = adj[p]
        ep = elems[p]
        for e in ep:
            lp_mask |= element_vars[e]
            element_vars[e] = 0
        elems[p] = set()
        adj[p] = 0
        dead[p] = True
        live ^= 1 << p
        lp_mask &= live
        lp = _bits(lp_mask)
        e_new += 1
        element_vars[e_new] = lp_mask
        lp_weight = element_size[e_new] = sum(map(weight.__getitem__, lp))

        # element marks: wmark[e] = |Le \ Lp| for every element e touching
        # Lp, in one pass (0 for the new element)
        touched = []
        for v in lp:
            # drop the elements just absorbed into the new one: every other
            # element of a live variable is still live
            ev = elems[v]
            ev -= ep
            w = weight[v]
            for e in ev:
                m = wmark[e]
                if m < 0:
                    wmark[e] = element_size[e] - w
                    touched.append(e)
                else:
                    wmark[e] = m - w
            ev.add(e_new)
        wmark[e_new] = 0

        # aggressive element absorption: an old element fully inside Lp is
        # gone (its variables are all in Lp, and leave it below)
        absorbed = {e for e in touched if not wmark[e]}
        for e in absorbed:
            element_vars[e] = 0

        # approximate degree update for the variables of the new element:
        # |Le \ Lp| for every surviving element.  Dead variables (p included)
        # are masked out of the variable adjacency, and neighbours inside Lp
        # are covered by the new element; what remains is the external
        # adjacency, which keys the supervariable buckets (each keyed on
        # the first variable seen; a group forms only on a collision)
        outside_lp = live & ~lp_mask
        first: dict[int, int] = {}
        groups: dict[int, list[int]] = {}
        for v in lp:
            ev = elems[v]
            if absorbed:
                ev -= absorbed
            ext = adj[v] & outside_lp
            d = lp_weight - weight[v] + ext.bit_count() + sum(map(wmark.__getitem__, ev))
            todo = ext & heavy
            while todo:  # add the extra weight of the supervariables one by one
                top = todo.bit_length() - 1
                d += weight[top] - 1
                todo ^= 1 << top
            degree[v] = d
            if not fill:
                # a variable merged below leaves a dead entry, dropped on pop
                k = cur[v] = (d << shift) | rank[v]
                if k < entry[v]:
                    heappush(heap, k)
                    entry[v] = k
            f = first.setdefault(ext, v)
            if f != v:
                groups.setdefault(f, [f]).append(v)
        for e in touched:
            wmark[e] = -1
        wmark[e_new] = -1
        for group in groups.values():
            # supervariable detection (mass elimination): variables of Lp
            # with the same external adjacency and the same elements are
            # indistinguishable
            same: dict[frozenset, list[int]] = {}
            for v in group:
                same.setdefault(frozenset(elems[v]), []).append(v)
            for twins in same.values():
                if len(twins) > 1:
                    keep = twins[0]  # groups fill in increasing variable order
                    heavy |= 1 << keep
                    for other in twins[1:]:
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

        if not fill:
            continue
        # rescore the survivors of Lp: only they changed.  Approximate
        # deficiency: eliminating u fills at most d(d-1)/2 edges, less the
        # ones already inside each adjacent element (a clique; u belongs to
        # each of them)
        for u in lp:
            if dead[u]:
                continue
            su = degree[u]
            w = weight[u]
            su = su * (su - 1) // 2
            for e in elems[u]:
                k = element_size[e] - w
                su -= k * (k - 1) // 2
            if su < 0:
                su = 0
            k = cur[u] = (su << shift) | rank[u]
            if k < entry[u]:
                heappush(heap, k)
                entry[u] = k

    # every live variable keeps a heap entry at or below its score, and every
    # merged one is emitted with its principal, so the heap cannot run dry early
    if len(perm) != n:
        raise RuntimeError("greedy ordering lost a variable")
    return np.asarray(perm, dtype=np.int64)
