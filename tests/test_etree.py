"""Tests for the elimination tree and tree utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import SparsePattern, banded_pattern, grid_2d, random_pattern
from repro.symbolic import (
    children_lists,
    elimination_tree,
    postorder,
    tree_depth,
    tree_levels,
)
from repro.symbolic.etree import is_postordered, subtree_sizes


def brute_force_etree(pattern):
    """Reference etree: parent[j] = min{i > j : L[i, j] != 0} via dense filled graph."""
    sym = pattern.symmetrized().with_diagonal()
    n = sym.n
    dense = np.zeros((n, n), dtype=bool)
    for i in range(n):
        dense[i, sym.row(i)] = True
    # dense symbolic Cholesky fill
    for k in range(n):
        rows = np.nonzero(dense[:, k])[0]
        rows = rows[rows > k]
        for a in rows:
            dense[a, rows] = True
            dense[rows, a] = True
    parent = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        below = np.nonzero(dense[j + 1:, j])[0]
        if below.size:
            parent[j] = j + 1 + below[0]
    return parent


class TestEliminationTree:
    def test_band_matrix_is_path(self):
        p = banded_pattern(10, bandwidth=1)
        parent = elimination_tree(p)
        assert list(parent) == list(range(1, 10)) + [-1]

    def test_diagonal_matrix_is_forest_of_singletons(self):
        p = SparsePattern.from_coo(5, range(5), range(5), symmetric=True)
        parent = elimination_tree(p)
        assert all(x == -1 for x in parent)

    def test_matches_brute_force_on_grid(self):
        g = grid_2d(5, 5)
        assert np.array_equal(elimination_tree(g), brute_force_etree(g))

    def test_matches_brute_force_on_random(self):
        p = random_pattern(30, density=0.08, symmetric=True, seed=5)
        assert np.array_equal(elimination_tree(p), brute_force_etree(p))

    def test_parent_always_larger(self, small_grid):
        parent = elimination_tree(small_grid)
        for j, pj in enumerate(parent):
            assert pj == -1 or pj > j

    def test_figure1_example(self):
        # the 6x6 matrix of Figure 1 of the paper
        rows = [[0, 1, 4], [0, 1, 5], [2, 3, 4], [2, 3, 5], [0, 2, 4, 5], [1, 3, 4, 5]]
        p = SparsePattern.from_rows(rows, symmetric=True)
        parent = elimination_tree(p)
        # variables 0,1 and 2,3 chain into the separator {4,5}
        assert parent[4] == 5
        assert parent[5] == -1


class TestPostorder:
    def test_postorder_is_permutation(self, small_grid):
        parent = elimination_tree(small_grid)
        post = postorder(parent)
        assert sorted(post.tolist()) == list(range(small_grid.n))

    def test_children_before_parent(self, small_grid):
        parent = elimination_tree(small_grid)
        post = postorder(parent)
        position = np.empty(len(parent), dtype=int)
        position[post] = np.arange(len(parent))
        for j, pj in enumerate(parent):
            if pj >= 0:
                assert position[j] < position[pj]

    def test_postorder_detects_cycle(self):
        with pytest.raises(ValueError):
            postorder(np.array([1, 0]))

    def test_relabelled_tree_is_postordered(self, small_grid):
        parent = elimination_tree(small_grid)
        post = postorder(parent)
        relabelled = elimination_tree(small_grid.symmetrized().with_diagonal().permuted(post))
        assert is_postordered(relabelled)


class TestTreeUtilities:
    def test_children_lists(self):
        parent = np.array([2, 2, -1])
        assert children_lists(parent) == [[], [], [0, 1]]

    def test_subtree_sizes_path(self):
        parent = np.array([1, 2, -1])
        assert list(subtree_sizes(parent)) == [1, 2, 3]

    def test_levels_and_depth(self):
        parent = np.array([2, 2, -1])
        levels = tree_levels(parent)
        assert list(levels) == [1, 1, 0]
        assert tree_depth(parent) == 2

    def test_depth_empty(self):
        assert tree_depth(np.array([], dtype=np.int64)) == 0

    def test_depth_single(self):
        assert tree_depth(np.array([-1])) == 1


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=18), seed=st.integers(0, 500))
def test_property_etree_matches_brute_force(n, seed):
    """Liu's algorithm agrees with the dense reference on random symmetric patterns."""
    rng = np.random.default_rng(seed)
    nnz = max(1, int(0.15 * n * n))
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    pattern = SparsePattern.from_coo(n, rows, cols, symmetrize_pattern=True)
    assert np.array_equal(elimination_tree(pattern), brute_force_etree(pattern))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=30), seed=st.integers(0, 500))
def test_property_postordered_etree_is_the_relabelled_etree(n, seed):
    """etree(P A Pᵀ) for a postorder P is the relabelled etree (what the tree build relies on)."""
    rng = np.random.default_rng(seed)
    nnz = int(0.1 * n * n)
    pattern = SparsePattern.from_coo(
        n, rng.integers(0, n, size=nnz), rng.integers(0, n, size=nnz), symmetrize_pattern=True
    )
    sym = pattern.symmetrized().with_diagonal()
    parent = elimination_tree(sym)
    post = postorder(parent)
    ipost = np.empty(n, dtype=np.int64)
    ipost[post] = np.arange(n)
    relabelled = np.where(parent[post] >= 0, ipost[parent[post]], -1)
    assert np.array_equal(elimination_tree(sym.permuted(post)), relabelled)


def recursive_postorder(parent):
    children = [[] for _ in parent]
    for j, p in enumerate(parent):
        if p >= 0:
            children[p].append(j)
    out = []

    def visit(j):
        for c in children[j]:
            visit(c)
        out.append(j)

    for j, p in enumerate(parent):
        if p < 0:
            visit(j)
    return out


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=40), seed=st.integers(0, 500))
def test_property_postorder_matches_recursive_dfs(n, seed):
    """Random forests under random labels: children and roots visited in increasing order."""
    rng = np.random.default_rng(seed)
    shape = [int(rng.integers(j + 1, n)) if j + 1 < n and rng.random() < 0.8 else -1 for j in range(n)]
    label = rng.permutation(n)
    parent = np.full(n, -1, dtype=np.int64)
    for j, p in enumerate(shape):
        if p >= 0:
            parent[label[j]] = label[p]
    assert postorder(parent).tolist() == recursive_postorder(parent.tolist())
