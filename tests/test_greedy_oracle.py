"""The greedy ordering kernel against a frozen oracle.

``oracle_greedy`` is the quotient-graph kernel as it stood before its heap
took packed int keys and its supervariable buckets were keyed on the
external adjacency alone: a heap of ``(score, jitter, index)`` tuples that
re-pushes whenever a score drops, elements cleaned against the live element
set, buckets keyed on ``(external adjacency, element set)`` and the
adjacency bitsets packed byte by byte.  The property tests below hold the
kernel to the same permutation on random graphs: both scores, several
seeds, sizes on both sides of the one-word (n <= 64) bitset rows, isolated
vertices, disconnected graphs, and graphs full of indistinguishable rows so
that supervariables merge.
"""

import heapq

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ordering.quotient_graph import greedy_ordering, order_subgraph, tie_breakers
from repro.sparse import SparsePattern


def oracle_bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, in increasing order."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def oracle_greedy(indptr: np.ndarray, indices: np.ndarray, score: str, seed: int) -> np.ndarray:
    """The tuple-heap kernel on a symmetric, diagonal-free CSR adjacency."""
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
        lp = oracle_bits(lp_mask)
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
    assert len(perm) == n
    return np.asarray(perm, dtype=np.int64)


# --------------------------------------------------------------------------- #
# graphs
# --------------------------------------------------------------------------- #
def random_edges(rng: np.random.Generator, n: int, density: float) -> tuple[np.ndarray, np.ndarray]:
    nnz = int(density * n * n)
    return rng.integers(0, n, nnz), rng.integers(0, n, nnz)


def build_graph(kind: str, n: int, density: float, seed: int) -> SparsePattern:
    """A symmetric pattern of about ``n`` vertices.

    ``plain``: uniformly random edges.  ``isolated``: a random graph on the
    first half, the rest isolated.  ``split``: two random graphs side by
    side, no edge between them.  ``fem``: each vertex of a random graph
    becomes a block of 2 to 4 dofs coupled like the vertex (indistinguishable
    rows).  ``twins``: a random graph plus copies of some rows.
    """
    rng = np.random.default_rng(seed)
    if kind == "plain":
        rows, cols = random_edges(rng, n, density)
    elif kind == "isolated":
        rows, cols = random_edges(rng, max(1, n // 2), density)
    elif kind == "split":
        half = max(1, n // 2)
        r1, c1 = random_edges(rng, half, density)
        r2, c2 = random_edges(rng, n - half, density)
        rows, cols = np.concatenate([r1, r2 + half]), np.concatenate([c1, c2 + half])
    elif kind == "fem":
        dofs = int(rng.integers(2, 5))
        nodes = max(1, n // dofs)
        r, c = random_edges(rng, nodes, density)
        r, c = np.concatenate([r, np.arange(nodes)]), np.concatenate([c, np.arange(nodes)])
        a, b = np.meshgrid(np.arange(dofs), np.arange(dofs))
        rows = (r[:, None] * dofs + a.ravel()[None, :]).ravel()
        cols = (c[:, None] * dofs + b.ravel()[None, :]).ravel()
        n = nodes * dofs
    else:  # twins
        base = max(1, (2 * n) // 3)
        r, c = random_edges(rng, base, density)
        pattern = SparsePattern.from_coo(base, r, c, symmetrize_pattern=True)
        rows, cols = list(r), list(c)
        for k, v in enumerate(rng.integers(0, base, n - base).tolist()):
            twin = base + k
            for u in pattern.row(v).tolist():
                rows.append(twin)
                cols.append(u)
            if rng.random() < 0.5:  # a twin adjacent to its original, or not
                rows.append(twin)
                cols.append(v)
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    return SparsePattern.from_coo(n, rows, cols, symmetrize_pattern=True)


graph_args = dict(
    kind=st.sampled_from(["plain", "isolated", "split", "fem", "twins"]),
    density=st.sampled_from([0.01, 0.05, 0.15, 0.4]),
    graph_seed=st.integers(0, 10_000),
    score=st.sampled_from(["degree", "fill"]),
    seed=st.integers(0, 5),
)


def check_kernel(kind, n, density, graph_seed, score, seed):
    pattern = build_graph(kind, n, density, graph_seed)
    indptr, indices = pattern.adjacency()
    want = oracle_greedy(indptr, indices, score, seed)
    assert greedy_ordering(pattern, score, seed=seed).tolist() == want.tolist()
    # the leaf path: the same kernel on an induced subgraph, in global ids
    vertices = np.random.default_rng(graph_seed).permutation(pattern.n)[: max(2, (2 * pattern.n) // 3)]
    verts = np.sort(vertices)
    sub = pattern.submatrix(verts)
    want_sub = verts[oracle_greedy(*sub.adjacency(), score, seed)]
    jitter = tie_breakers(seed, pattern.n)
    assert order_subgraph(indptr, indices, vertices, score, jitter).tolist() == want_sub.tolist()


@settings(max_examples=150, deadline=None)
@given(n=st.integers(min_value=2, max_value=64), **graph_args)
def test_property_kernel_matches_oracle_on_one_word_rows(kind, n, density, graph_seed, score, seed):
    check_kernel(kind, n, density, graph_seed, score, seed)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=65, max_value=300), **graph_args)
def test_property_kernel_matches_oracle_on_multiword_rows(kind, n, density, graph_seed, score, seed):
    check_kernel(kind, n, density, graph_seed, score, seed)
