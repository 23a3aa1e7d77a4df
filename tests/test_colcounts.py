"""Tests for the column-count computation (Gilbert-Ng-Peyton vs. reference)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import SparsePattern, arrow_pattern, banded_pattern, grid_2d, grid_3d, random_pattern
from repro.symbolic import column_counts, column_counts_naive, elimination_tree, postorder
from repro.symbolic.colcounts import symbolic_fill


def scalar_column_counts(pattern, parent=None, post=None):
    """The per-nonzero Gilbert-Ng-Peyton loop: oracle of the batched :func:`column_counts`."""
    sym = pattern.symmetrized().with_diagonal()
    n = sym.n
    if parent is None:
        parent = elimination_tree(sym)
    if post is None:
        post = postorder(parent)
    parent, post = parent.tolist(), post.tolist()
    delta = [0] * n
    first = [-1] * n
    maxfirst = [-1] * n
    prevleaf = [-1] * n
    ancestor = list(range(n))
    # first[j]: postorder index of the first descendant of j; a node is a
    # leaf of the etree iff it is its own first descendant
    for k, j in enumerate(post):
        delta[j] = 1 if first[j] == -1 else 0
        while j != -1 and first[j] == -1:
            first[j] = k
            j = parent[j]
    for j in post:
        pj = parent[j]
        if pj != -1:
            delta[pj] -= 1
        for i in sym.row(j).tolist():
            # skeleton test: is j a leaf of the row subtree of row i?
            if i <= j or first[j] <= maxfirst[i]:
                continue
            maxfirst[i] = first[j]
            delta[j] += 1
            jprev, prevleaf[i] = prevleaf[i], j
            if jprev != -1:
                # subsequent leaf: discount the LCA of jprev and j
                q = jprev
                while q != ancestor[q]:
                    q = ancestor[q]
                s = jprev
                while s != q:
                    ancestor[s], s = q, ancestor[s]
                delta[q] -= 1
        if pj != -1:
            ancestor[j] = pj
    for j in post:
        if parent[j] != -1:
            delta[parent[j]] += delta[j]
    return np.asarray(delta, dtype=np.int64)


class TestColumnCounts:
    @pytest.mark.parametrize(
        "pattern",
        [
            banded_pattern(15, bandwidth=1),
            banded_pattern(15, bandwidth=3),
            grid_2d(6, 6),
            grid_2d(7, 4, stencil=9),
            grid_3d(4, 4, 4),
            arrow_pattern(20, bandwidth=2, arrow_width=2),
            random_pattern(40, density=0.08, symmetric=True, seed=1),
        ],
        ids=["band1", "band3", "grid2d", "grid2d9", "grid3d", "arrow", "random"],
    )
    def test_matches_naive(self, pattern):
        assert np.array_equal(column_counts(pattern), column_counts_naive(pattern))

    def test_band_counts_closed_form(self):
        # a tridiagonal matrix fills nothing: colcount(j) = min(2, n - j)
        p = banded_pattern(10, bandwidth=1)
        counts = column_counts(p)
        expected = [2] * 9 + [1]
        assert list(counts) == expected

    def test_dense_counts(self):
        n = 8
        rows, cols = np.meshgrid(np.arange(n), np.arange(n))
        p = SparsePattern.from_coo(n, rows.ravel(), cols.ravel(), symmetric=True)
        counts = column_counts(p)
        assert list(counts) == list(range(n, 0, -1))

    def test_counts_bounded_by_n(self, small_grid):
        counts = column_counts(small_grid)
        assert counts.min() >= 1
        assert counts.max() <= small_grid.n

    def test_accepts_precomputed_etree(self, small_grid):
        sym = small_grid.symmetrized().with_diagonal()
        parent = elimination_tree(sym)
        post = postorder(parent)
        a = column_counts(sym, parent, post)
        b = column_counts(sym)
        assert np.array_equal(a, b)

    def test_permutation_changes_fill_not_validity(self, small_grid):
        rng = np.random.default_rng(0)
        perm = rng.permutation(small_grid.n)
        counts = column_counts(small_grid.permuted(perm))
        assert counts.min() >= 1 and counts.max() <= small_grid.n


class TestSymbolicFill:
    def test_summary_keys(self, small_grid):
        info = symbolic_fill(small_grid)
        assert set(info) == {"nnz_L", "fill_ratio", "flops"}
        assert info["nnz_L"] >= small_grid.n
        assert info["fill_ratio"] >= 1.0
        assert info["flops"] > 0

    def test_band_has_no_fill(self):
        p = banded_pattern(20, bandwidth=1)
        info = symbolic_fill(p)
        assert info["fill_ratio"] == pytest.approx(1.0)

    def test_nnz_L_equals_sum_of_counts(self, small_grid):
        counts = column_counts(small_grid)
        assert symbolic_fill(small_grid)["nnz_L"] == pytest.approx(float(counts.sum()))


class TestVectorizedEquivalence:
    """PR 5 gate: the numpy-batched path ≡ the scalar reference, bitwise."""

    @pytest.mark.parametrize(
        "pattern",
        [
            banded_pattern(15, bandwidth=1),
            banded_pattern(25, bandwidth=4),
            grid_2d(8, 8),
            grid_2d(7, 4, stencil=9),
            grid_3d(5, 5, 5),
            arrow_pattern(30, bandwidth=2, arrow_width=2),
            random_pattern(60, density=0.08, symmetric=True, seed=1),
            random_pattern(60, density=0.03, symmetric=False, seed=5),
        ],
        ids=["band1", "band4", "grid2d", "grid2d9", "grid3d", "arrow", "randsym", "randuns"],
    )
    def test_matches_scalar_reference(self, pattern):
        vec = column_counts(pattern)
        ref = scalar_column_counts(pattern)
        assert vec.dtype == ref.dtype
        assert np.array_equal(vec, ref)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=40), seed=st.integers(0, 5000))
    def test_property_matches_scalar_on_random_patterns(self, n, seed):
        rng = np.random.default_rng(seed)
        nnz = max(1, int(rng.uniform(0.02, 0.4) * n * n))
        pattern = SparsePattern.from_coo(
            n, rng.integers(0, n, nnz), rng.integers(0, n, nnz), symmetrize_pattern=True
        )
        sym = pattern.symmetrized().with_diagonal()
        parent = elimination_tree(sym)
        post = postorder(parent)
        vec = column_counts(sym, parent, post)
        ref = scalar_column_counts(sym, parent, post)
        assert np.array_equal(vec, ref)
        assert np.array_equal(vec, column_counts_naive(pattern))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=40), seed=st.integers(0, 5000))
    def test_property_postordered_pattern_with_identity_post(self, n, seed):
        """The postordered matrix is its own postorder: identity ``post`` needs no reordering."""
        rng = np.random.default_rng(seed)
        nnz = max(1, int(rng.uniform(0.02, 0.4) * n * n))
        pattern = SparsePattern.from_coo(
            n, rng.integers(0, n, nnz), rng.integers(0, n, nnz), symmetrize_pattern=True
        )
        sym = pattern.symmetrized().with_diagonal()
        parent = elimination_tree(sym)
        post = postorder(parent)
        sym_post = sym.permuted(post)
        parent_post = elimination_tree(sym_post)
        got = column_counts(sym_post, parent_post, np.arange(n, dtype=np.int64))
        assert np.array_equal(got, column_counts_naive(sym_post))
        assert np.array_equal(got, scalar_column_counts(sym_post, parent_post))
        # what the tree build relies on: the counts of the relabelled matrix
        # are the relabelled counts
        assert np.array_equal(got, column_counts(sym, parent, post)[post])


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=20), seed=st.integers(0, 1000))
def test_property_gnp_equals_naive(n, seed):
    """The skeleton algorithm agrees with the row-subtree reference."""
    rng = np.random.default_rng(seed)
    nnz = max(1, int(0.2 * n * n))
    pattern = SparsePattern.from_coo(
        n, rng.integers(0, n, nnz), rng.integers(0, n, nnz), symmetrize_pattern=True
    )
    assert np.array_equal(column_counts(pattern), column_counts_naive(pattern))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=15), seed=st.integers(0, 1000))
def test_property_counts_decrease_along_supernode(n, seed):
    """Within the etree, a child's count is at most its parent's count + 1."""
    rng = np.random.default_rng(seed)
    nnz = max(1, int(0.25 * n * n))
    pattern = SparsePattern.from_coo(
        n, rng.integers(0, n, nnz), rng.integers(0, n, nnz), symmetrize_pattern=True
    )
    sym = pattern.symmetrized().with_diagonal()
    parent = elimination_tree(sym)
    counts = column_counts(sym, parent)
    for j in range(n):
        p = int(parent[j])
        if p >= 0:
            # struct(L(:,j)) \ {j} is contained in struct(L(:,parent))
            assert counts[j] - 1 <= counts[p]
