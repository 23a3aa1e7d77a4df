"""Unit tests for the SparsePattern container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import SparsePattern, banded_pattern, grid_2d, random_pattern


class TestConstruction:
    def test_from_coo_basic(self):
        p = SparsePattern.from_coo(3, [0, 1, 2, 0], [0, 1, 2, 2])
        assert p.n == 3
        assert p.nnz == 4
        assert list(p.row(0)) == [0, 2]

    def test_from_coo_merges_duplicates(self):
        p = SparsePattern.from_coo(2, [0, 0, 0], [1, 1, 1])
        assert p.nnz == 1

    def test_from_coo_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparsePattern.from_coo(2, [0], [5])
        with pytest.raises(ValueError):
            SparsePattern.from_coo(2, [-1], [0])

    def test_from_coo_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            SparsePattern.from_coo(3, [0, 1], [0])

    def test_from_coo_symmetrise(self):
        p = SparsePattern.from_coo(3, [0], [2], symmetrize_pattern=True)
        assert (0 in p.row(2)) and (2 in p.row(0))

    def test_from_dense(self):
        dense = np.array([[1, 0], [1, 1]])
        p = SparsePattern.from_dense(dense)
        assert p.nnz == 3
        with pytest.raises(ValueError):
            SparsePattern.from_dense(np.ones((2, 3)))

    def test_from_rows(self):
        p = SparsePattern.from_rows([[0, 1], [1], [2, 0]])
        assert p.n == 3
        assert p.nnz == 5

    def test_from_scipy_roundtrip(self):
        g = grid_2d(5, 5)
        sp = g.to_scipy()
        back = SparsePattern.from_scipy(sp, symmetric=True)
        assert back == SparsePattern(g.n, g.indptr, g.indices, symmetric=True, name=back.name)

    def test_rows_are_sorted_and_unique(self):
        p = SparsePattern.from_coo(4, [1, 1, 1, 1], [3, 0, 2, 0])
        row = p.row(1)
        assert list(row) == sorted(set(row.tolist()))


class TestQueries:
    def test_nnz_and_repr(self):
        p = banded_pattern(10, bandwidth=1)
        assert p.nnz == 10 + 2 * 9
        assert "SparsePattern" in repr(p)

    def test_has_diagonal(self):
        assert banded_pattern(6).has_diagonal()
        off = SparsePattern.from_coo(3, [0, 1], [1, 2])
        assert not off.has_diagonal()

    def test_structural_symmetry_full(self):
        assert grid_2d(4, 4).structural_symmetry() == pytest.approx(1.0)
        assert grid_2d(4, 4).is_structurally_symmetric()

    def test_structural_symmetry_partial(self):
        p = SparsePattern.from_coo(4, [0, 1, 2], [1, 0, 3])
        # (0,1)/(1,0) are mutual, (2,3) is not
        assert 0.0 < p.structural_symmetry() < 1.0
        assert not p.is_structurally_symmetric()

    def test_degrees_grid_interior(self):
        g = grid_2d(5, 5)
        deg = g.degrees()
        # interior points of a 5-point stencil have 4 neighbours
        assert deg.max() == 4
        assert deg.min() == 2  # corners

    def test_empty_row(self):
        p = SparsePattern.from_coo(3, [0], [0])
        assert p.row(2).size == 0


class TestTransforms:
    def test_transpose_involution(self):
        p = SparsePattern.from_coo(5, [0, 1, 4], [2, 3, 0])
        assert p.transpose().transpose() == p

    def test_symmetrized_contains_both(self):
        p = SparsePattern.from_coo(4, [0], [3])
        s = p.symmetrized()
        assert 3 in s.row(0) and 0 in s.row(3)

    def test_symmetrized_idempotent_on_symmetric(self):
        g = grid_2d(4, 4)
        assert g.symmetrized() is g

    def test_with_diagonal(self):
        p = SparsePattern.from_coo(3, [0], [1])
        d = p.with_diagonal()
        assert d.has_diagonal()
        assert d.nnz == 4

    def test_permuted_identity(self):
        g = grid_2d(4, 4)
        assert g.permuted(np.arange(g.n)) == g

    def test_permuted_preserves_nnz_and_degrees(self):
        g = grid_2d(5, 4)
        rng = np.random.default_rng(0)
        perm = rng.permutation(g.n)
        q = g.permuted(perm)
        assert q.nnz == g.nnz
        assert sorted(q.degrees().tolist()) == sorted(g.degrees().tolist())

    def test_permuted_rejects_bad_perm(self):
        g = grid_2d(3, 3)
        with pytest.raises(ValueError):
            g.permuted(np.zeros(g.n, dtype=int))
        with pytest.raises(ValueError):
            g.permuted(np.arange(g.n - 1))

    def test_submatrix(self):
        g = grid_2d(4, 4)
        keep = np.array([0, 1, 4, 5])
        sub = g.submatrix(keep)
        assert sub.n == 4
        # 0-1 adjacent, 0-4 adjacent in the grid
        assert 1 in sub.row(0)
        assert 2 in sub.row(0)

    def test_adjacency_no_diagonal(self):
        g = grid_2d(4, 4)
        indptr, indices = g.adjacency()
        rows = np.repeat(np.arange(g.n), np.diff(indptr))
        assert not np.any(rows == indices)

    def test_to_networkx(self):
        g = grid_2d(3, 3)
        nxg = g.to_networkx()
        assert nxg.number_of_nodes() == 9
        assert nxg.number_of_edges() == 12  # 2 * 3 * 2 grid edges

    def test_equality_and_hash(self):
        a = grid_2d(3, 3)
        b = grid_2d(3, 3)
        assert a == b
        assert hash(a) == hash(b)
        assert a != banded_pattern(9)
        assert a.__eq__(42) is NotImplemented

    def test_hash_ignores_name(self):
        """Regression: __eq__ ignores the name, so __hash__ must too.

        Structurally equal patterns with different names used to land in
        different hash buckets, breaking the hash/eq contract (equal objects
        must have equal hashes) and therefore set/dict membership.
        """
        a = SparsePattern.from_coo(3, [0, 1, 2], [0, 1, 2], name="one")
        b = SparsePattern.from_coo(3, [0, 1, 2], [0, 1, 2], name="two")
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert b in {a: "x"}

    def test_has_diagonal(self):
        assert SparsePattern.from_coo(3, [0, 1, 2], [0, 1, 2]).has_diagonal()
        assert not SparsePattern.from_coo(3, [0, 1], [0, 1]).has_diagonal()
        # off-diagonal entries alongside a full diagonal
        assert SparsePattern.from_coo(2, [0, 0, 1, 1], [0, 1, 0, 1]).has_diagonal()
        # a strictly off-diagonal entry does not compensate a missing pivot
        assert not SparsePattern.from_coo(2, [0, 1, 1], [0, 0, 0]).has_diagonal()
        assert grid_2d(4, 4).has_diagonal()
        assert SparsePattern.from_coo(0, [], []).has_diagonal()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_property_symmetrized_is_symmetric(n, data):
    """A symmetrized pattern always equals its transpose."""
    nnz = data.draw(st.integers(min_value=0, max_value=3 * n))
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz))
    cols = data.draw(st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz))
    p = SparsePattern.from_coo(n, rows, cols)
    assert p.symmetrized().is_structurally_symmetric()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_permutation_roundtrip(n, seed):
    """Permuting by p then by the inverse of p recovers the original pattern."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=3 * n)
    cols = rng.integers(0, n, size=3 * n)
    pattern = SparsePattern.from_coo(n, rows, cols)
    perm = rng.permutation(n)
    # permuted(perm) relabels variable perm[k] -> k; permuting the result by
    # the inverse permutation (argsort of perm) restores the original pattern
    once = pattern.permuted(perm)
    back = once.permuted(np.argsort(perm))
    assert back == pattern


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=40),
    density=st.sampled_from([0.0, 0.05, 0.2, 0.6]),
    seed=st.integers(min_value=0, max_value=1000),
    symmetric=st.booleans(),
    with_diagonal=st.booleans(),
)
def test_property_permuted_equals_the_coo_rebuild(n, density, seed, symmetric, with_diagonal):
    """One relabel-and-sort gives the CSR that rebuilding from coordinates gives."""
    pattern = random_pattern(n, density=density, symmetric=symmetric, seed=seed, with_diagonal=with_diagonal)
    perm = np.random.default_rng(seed).permutation(n)
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
    want = SparsePattern.from_coo(
        n, inv[rows], inv[pattern.indices], symmetric=pattern.symmetric, name=pattern.name
    )
    got = pattern.permuted(perm)
    assert got == want and got.name == want.name
    assert got.indptr.dtype == want.indptr.dtype and got.indices.dtype == want.indices.dtype
    if n > 1:
        bad = perm.copy()
        bad[0] = bad[1]  # a repeated index is no permutation
        with pytest.raises(ValueError):
            pattern.permuted(bad)


@pytest.mark.parametrize("scale", [0.1, 0.3, 1.0])
def test_symmetric_problems_store_both_triangles(scale):
    """A pattern declared symmetric stores both triangles, which `permuted` relies on."""
    from repro.experiments.problems import PROBLEMS

    for spec in PROBLEMS.values():
        pattern = spec.build(scale)
        assert not pattern.symmetric or pattern.is_structurally_symmetric(), spec.name
