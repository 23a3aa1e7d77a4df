"""Tests for the fill-reducing orderings."""

import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ordering import (
    ORDERINGS,
    amd_ordering,
    amf_ordering,
    compute_ordering,
    is_permutation,
    nested_dissection_ordering,
    pord_ordering,
    rcm_ordering,
)
from repro.ordering.nested_dissection import _components, _cut, extract_hubs
from repro.ordering.quotient_graph import greedy_ordering, induced_subgraph, order_subgraph, tie_breakers
from repro.ordering.rcm import bfs_levels, peripheral_search, solo
from repro.sparse import SparsePattern, arrow_pattern, circuit_pattern, grid_2d, grid_3d, random_pattern
from repro.symbolic.colcounts import symbolic_fill


ALL_METHODS = ["metis", "pord", "amd", "amf", "rcm", "natural"]


def connected_components(indptr, indices, vertices):
    """The dissection driver's component search, run on its own: the
    components of the subgraph induced by ``vertices``, each in BFS order
    from its first vertex in ``vertices``, plus the first one's levels."""
    inset = np.zeros(len(indptr) - 1, dtype=bool)
    inset[vertices] = True
    level = np.full(len(indptr) - 1, -1, dtype=np.int64)
    search = _components(level, vertices)
    try:
        root = next(search)
        while True:  # every search writes into ``level``, as in the driver
            root = search.send(bfs_levels(indptr, indices, root, inset, level))
    except StopIteration as done:
        comps = done.value
    return comps, (level, comps[0])


def find_separator(indptr, indices, vertices, *, balance=0.5, levels=None):
    """The driver's split of one connected frame, run on its own:
    ``(part_a, part_b, separator)``; ``levels`` is the search's first sweep."""
    vertices = np.asarray(vertices, dtype=np.int64)
    mask = np.zeros(len(indptr) - 1, dtype=bool)
    mask[vertices] = True
    if levels is None:
        levels = bfs_levels(indptr, indices, int(vertices[0]), mask)
    return _cut(*solo(peripheral_search(indptr, *levels), indptr, indices, mask), balance)


class TestRegistry:
    def test_registry_contents(self):
        for name in ("metis", "pord", "amd", "amf", "rcm", "natural"):
            assert name in ORDERINGS

    def test_unknown_method(self, small_grid):
        with pytest.raises(ValueError):
            compute_ordering(small_grid, "scotch")

    def test_case_insensitive(self, small_grid):
        a = compute_ordering(small_grid, "AMD")
        b = compute_ordering(small_grid, "amd")
        assert np.array_equal(a, b)

    def test_is_permutation_helper(self):
        assert is_permutation(np.array([2, 0, 1]), 3)
        assert not is_permutation(np.array([0, 0, 1]), 3)
        assert not is_permutation(np.array([0, 1]), 3)


class TestValidity:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_returns_permutation_grid(self, method, small_grid):
        perm = compute_ordering(small_grid, method)
        assert is_permutation(perm, small_grid.n)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_returns_permutation_unsym(self, method, unsym_pattern):
        perm = compute_ordering(unsym_pattern, method)
        assert is_permutation(perm, unsym_pattern.n)

    @pytest.mark.parametrize("method", ["metis", "pord", "amd", "amf"])
    def test_deterministic(self, method, small_grid):
        a = compute_ordering(small_grid, method)
        b = compute_ordering(small_grid, method)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("method", ["metis", "amd", "amf", "pord", "rcm"])
    def test_disconnected_graph(self, method):
        # two disjoint grids
        from repro.sparse import SparsePattern

        g = grid_2d(4, 4)
        rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
        cols = g.indices
        p = SparsePattern.from_coo(
            2 * g.n,
            np.concatenate([rows, rows + g.n]),
            np.concatenate([cols, cols + g.n]),
            symmetric=True,
        )
        perm = compute_ordering(p, method)
        assert is_permutation(perm, p.n)

    @pytest.mark.parametrize("method", ["amd", "amf", "metis"])
    def test_tiny_matrices(self, method):
        for n in (1, 2, 3):
            p = random_pattern(n, density=0.8, symmetric=True, seed=0)
            assert is_permutation(compute_ordering(p, method), n)


class TestQuality:
    @pytest.mark.parametrize("method", ["metis", "pord", "amd", "amf"])
    def test_beats_natural_on_3d_grid(self, method):
        g = grid_3d(7, 7, 7)
        natural = symbolic_fill(g)["nnz_L"]
        ordered = symbolic_fill(g.permuted(compute_ordering(g, method)))["nnz_L"]
        assert ordered < natural

    def test_amd_handles_arrow_matrix(self):
        # an arrowhead whose dense row comes FIRST fills completely under the
        # natural ordering; minimum degree pushes it back and keeps L sparse
        p = arrow_pattern(60, bandwidth=1, arrow_width=1).permuted(np.arange(60)[::-1])
        natural = symbolic_fill(p)["nnz_L"]
        amd = symbolic_fill(p.permuted(amd_ordering(p)))["nnz_L"]
        assert amd < 0.3 * natural

    def test_amf_close_to_amd_on_grid(self):
        g = grid_2d(12, 12)
        amd = symbolic_fill(g.permuted(amd_ordering(g)))["nnz_L"]
        amf = symbolic_fill(g.permuted(amf_ordering(g)))["nnz_L"]
        assert amf < 1.5 * amd

    def test_orderings_give_different_tree_shapes(self, medium_grid):
        """The paper's premise: the ordering drives the tree topology."""
        from repro.symbolic import build_assembly_tree

        depths = {}
        for method in ("metis", "amd", "rcm"):
            tree = build_assembly_tree(medium_grid, compute_ordering(medium_grid, method))
            depths[method] = tree.depth()
        assert depths["rcm"] > depths["metis"]  # RCM gives path-like trees


class TestNestedDissectionInternals:
    def test_separator_separates(self, small_grid):
        indptr, indices = small_grid.adjacency()
        vertices = np.arange(small_grid.n, dtype=np.int64)
        part_a, part_b, sep = find_separator(indptr, indices, vertices)
        assert part_a.size + part_b.size + sep.size == small_grid.n
        in_a = np.zeros(small_grid.n, dtype=bool)
        in_a[part_a] = True
        in_b = np.zeros(small_grid.n, dtype=bool)
        in_b[part_b] = True
        # no edge directly connects A and B
        for v in part_a:
            for u in small_grid.row(int(v)):
                assert not in_b[u]

    def test_hub_extraction_on_arrow(self):
        p = arrow_pattern(100, bandwidth=1, arrow_width=2)
        indptr, indices = p.adjacency()
        hubs = extract_hubs(indptr, indices)
        assert 98 in hubs or 99 in hubs

    def test_hub_extraction_none_on_grid(self, small_grid):
        indptr, indices = small_grid.adjacency()
        assert extract_hubs(indptr, indices).size == 0

    def test_leaf_size_controls_recursion(self, small_grid):
        fine = nested_dissection_ordering(small_grid, leaf_size=8)
        coarse = nested_dissection_ordering(small_grid, leaf_size=64)
        assert is_permutation(fine, small_grid.n)
        assert is_permutation(coarse, small_grid.n)

    @pytest.mark.parametrize("order", [nested_dissection_ordering, pord_ordering])
    def test_memory_is_linear_in_the_components(self, order):
        # 2,100 components, 1,658 of them single vertices: one level array per
        # component search would peak near 50 MB here
        pattern = random_graph(3000, 0.0001, 0, symmetric=True)
        pattern.adjacency()
        tracemalloc.start()
        try:
            perm = order(pattern)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert is_permutation(perm, pattern.n)
        assert peak < 1024 * pattern.n

    def test_pord_levels(self, small_grid):
        shallow = pord_ordering(small_grid, nd_levels=1)
        deep = pord_ordering(small_grid, nd_levels=5)
        assert is_permutation(shallow, small_grid.n)
        assert is_permutation(deep, small_grid.n)


class TestRcm:
    def test_rcm_reduces_bandwidth(self):
        rng = np.random.default_rng(0)
        g = grid_2d(8, 8)
        scrambled = g.permuted(rng.permutation(g.n))
        perm = rcm_ordering(scrambled)
        reordered = scrambled.permuted(perm)

        def bandwidth(p):
            rows = np.repeat(np.arange(p.n), np.diff(p.indptr))
            return int(np.abs(rows - p.indices).max())

        assert bandwidth(reordered) < bandwidth(scrambled)

    def test_rcm_on_circuit(self):
        c = circuit_pattern(150, seed=1)
        assert is_permutation(rcm_ordering(c), c.n)


# --------------------------------------------------------------------------- #
# properties on random masked graphs (disconnected, with isolated vertices)
# --------------------------------------------------------------------------- #
def deque_bfs(indptr, indices, start, mask):
    """FIFO-queue BFS: the oracle of the level-synchronous :func:`bfs_levels`."""
    level = [-1] * (len(indptr) - 1)
    level[start] = 0
    order = [start]
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in indices[indptr[u]:indptr[u + 1]].tolist():
            if mask[v] and level[v] < 0:
                level[v] = level[u] + 1
                order.append(v)
                queue.append(v)
    return level, order


def random_graph(n, density, seed, *, symmetric):
    """Random CSR pattern; sparse draws leave isolated vertices and several components."""
    rng = np.random.default_rng(seed)
    nnz = int(density * n * n)
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    return SparsePattern.from_coo(n, rows, cols, symmetrize_pattern=symmetric)


graph_args = dict(
    n=st.integers(min_value=1, max_value=40),
    density=st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3]),
    seed=st.integers(0, 10_000),
)


@settings(max_examples=60, deadline=None)
@given(**graph_args, symmetric=st.booleans(), mask_frac=st.sampled_from([0.5, 0.8, 1.0]))
def test_property_bfs_levels_matches_fifo_queue(n, density, seed, symmetric, mask_frac):
    pattern = random_graph(n, density, seed, symmetric=symmetric)
    rng = np.random.default_rng(seed + 1)
    mask = rng.random(n) < mask_frac
    start = int(rng.integers(0, n))
    level, order = bfs_levels(pattern.indptr, pattern.indices, start, mask)
    want_level, want_order = deque_bfs(pattern.indptr, pattern.indices, start, mask)
    assert level.tolist() == want_level
    assert order.tolist() == want_order


@settings(max_examples=60, deadline=None)
@given(**graph_args, cut_frac=st.sampled_from([0.0, 0.1, 0.3]))
def test_property_multi_source_bfs_matches_fifo_queue_per_set(n, density, seed, cut_frac):
    """Pairwise non-adjacent vertex sets (the components left after deleting a
    random separator): one BFS from every set's start is each set's own BFS."""
    indptr, indices = random_graph(n, density, seed, symmetric=True).adjacency()
    rng = np.random.default_rng(seed + 2)
    mask = rng.random(n) >= cut_frac
    sets, seen = [], np.zeros(n, dtype=bool)
    for v in rng.permutation(n).tolist():
        if mask[v] and not seen[v]:
            _, comp = deque_bfs(indptr, indices, v, mask)
            seen[comp] = True
            # restart each set from a random member of it
            sets.append(int(rng.choice(comp)))
    if not sets:
        return
    level, order = bfs_levels(indptr, indices, sets, mask)
    visited = 0
    for start in sets:
        want_level, want_order = deque_bfs(indptr, indices, start, mask)
        got = order[np.isin(order, want_order)]
        assert got.tolist() == want_order
        assert level[want_order].tolist() == [want_level[v] for v in want_order]
        visited += len(want_order)
    assert order.size == visited
    assert (level[~np.isin(np.arange(n), order)] == -1).all()
    # written in place, the search changes the visited entries alone
    stale = rng.integers(-1, n, size=n)
    inplace = stale.copy()
    _, again = bfs_levels(indptr, indices, sets, mask, inplace)
    assert again.tolist() == order.tolist()
    assert (inplace[order] == level[order]).all()
    untouched = np.ones(n, dtype=bool)
    untouched[order] = False
    assert (inplace[untouched] == stale[untouched]).all()


@settings(max_examples=40, deadline=None)
@given(**graph_args)
def test_property_connected_components_match_fifo_queue(n, density, seed):
    indptr, indices = random_graph(n, density, seed, symmetric=True).adjacency()
    vertices = np.random.default_rng(seed).permutation(n)[: max(1, n // 2)]
    inset = np.zeros(n, dtype=bool)
    inset[vertices] = True
    want, seen = [], set()
    for v in vertices.tolist():
        if v not in seen:
            _, comp = deque_bfs(indptr, indices, v, inset)
            seen.update(comp)
            want.append(comp)
    assert [c.tolist() for c in connected_components(indptr, indices, vertices)[0]] == want


@settings(max_examples=40, deadline=None)
@given(**graph_args, score=st.sampled_from(["degree", "fill"]))
def test_property_greedy_ordering_emits_every_variable(n, density, seed, score):
    perm = greedy_ordering(random_graph(n, density, seed, symmetric=False), score, seed=seed)
    assert is_permutation(perm, n)


# --------------------------------------------------------------------------- #
# the seams between the dissection frames and the greedy engine
# --------------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(**graph_args, symmetric=st.booleans(), keep_frac=st.sampled_from([0.2, 0.5, 1.0]))
def test_property_induced_subgraph_equals_submatrix_adjacency(n, density, seed, symmetric, keep_frac):
    sym = random_graph(n, density, seed, symmetric=symmetric).symmetrized()
    indptr, indices = sym.adjacency()
    vertices = np.random.default_rng(seed).permutation(n)[: max(1, int(keep_frac * n))]
    verts, rows, cols = induced_subgraph(indptr, indices, vertices)
    want_indptr, want_indices = sym.submatrix(vertices).adjacency()
    assert verts.tolist() == sorted(vertices.tolist())
    assert rows.tolist() == np.repeat(np.arange(verts.size), np.diff(want_indptr)).tolist()
    assert cols.tolist() == want_indices.tolist()


@settings(max_examples=40, deadline=None)
@given(**graph_args, score=st.sampled_from(["degree", "fill"]), keep_frac=st.sampled_from([0.3, 0.7, 1.0]))
def test_property_order_subgraph_equals_greedy_on_submatrix(n, density, seed, score, keep_frac):
    sym = random_graph(n, density, seed, symmetric=False).symmetrized()
    indptr, indices = sym.adjacency()
    vertices = np.random.default_rng(seed).permutation(n)[: max(2, int(keep_frac * n))]
    want = np.sort(vertices)[greedy_ordering(sym.submatrix(vertices), score, seed=seed)]
    assert order_subgraph(indptr, indices, vertices, score, tie_breakers(seed, n)).tolist() == want.tolist()


@settings(max_examples=40, deadline=None)
@given(**graph_args, balance=st.sampled_from([0.45, 0.5]))
def test_property_find_separator_with_handed_over_levels(n, density, seed, balance):
    indptr, indices = random_graph(n, density, seed, symmetric=True).adjacency()
    vertices = np.random.default_rng(seed).permutation(n)[: max(1, n // 2)]
    _, levels = connected_components(indptr, indices, vertices)
    # the handed-over structure is rooted at the frame's first vertex
    assert int(levels[1][0]) == int(vertices[0])
    for got, want in zip(
        find_separator(indptr, indices, vertices, balance=balance, levels=levels),
        find_separator(indptr, indices, vertices, balance=balance),
    ):
        assert got.tolist() == want.tolist()


@settings(max_examples=40, deadline=None)
@given(**graph_args, balance=st.sampled_from([0.2, 0.45, 0.5, 0.9]))
def test_property_separator_is_the_far_side_next_to_part_a(n, density, seed, balance):
    """On a connected frame the cut level is exactly the far-side vertices
    adjacent to part ``a``, and part ``b`` never touches ``a``."""
    indptr, indices = random_graph(n, density, seed, symmetric=True).adjacency()
    vertices = np.random.default_rng(seed).permutation(n)[: max(1, n // 2)]
    frame = connected_components(indptr, indices, vertices)[0][0]
    part_a, part_b, sep = find_separator(indptr, indices, frame, balance=balance)
    assert sorted(np.concatenate([part_a, part_b, sep]).tolist()) == sorted(frame.tolist())
    in_a = np.zeros(n, dtype=bool)
    in_a[part_a] = True
    touches_a = [bool(in_a[indices[indptr[v]:indptr[v + 1]]].any()) for v in np.concatenate([part_b, sep])]
    assert touches_a == [False] * part_b.size + [True] * sep.size
