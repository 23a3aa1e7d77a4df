"""Structural sparse-matrix container.

Only the *pattern* (positions of the nonzeros) is stored, because everything
in the reproduction — orderings, elimination trees, symbolic factorization,
the memory/flops models and the scheduling simulation — is determined by the
structure alone.  The container is a CSR-like layout over numpy arrays so the
hot loops of the symbolic algorithms can index it cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["SparsePattern"]


def _dedupe_sorted_rows(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort (row, col) pairs row-major and drop duplicates."""
    # one int64 key per pair sorts row-major in a single pass
    key = rows * n + cols
    key.sort()
    if key.size:
        keep = np.empty(key.size, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
    return np.divmod(key, n)


@dataclass(frozen=True)
class SparsePattern:
    """An ``n × n`` sparse pattern in CSR form.

    Attributes
    ----------
    n:
        Matrix order.
    indptr:
        Row pointer array of length ``n + 1``.
    indices:
        Column indices, sorted within each row, without duplicates.
    symmetric:
        ``True`` when the pattern is declared structurally symmetric.  The
        full pattern (both triangles) is always stored; the flag records the
        *matrix type* (SYM vs UNS in the paper's Table 1), which changes the
        flop and memory models of a front.
    name:
        Optional human-readable problem name.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    symmetric: bool = False
    name: str = ""

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_coo(
        cls,
        n: int,
        rows: Iterable[int],
        cols: Iterable[int],
        *,
        symmetric: bool = False,
        symmetrize_pattern: bool = False,
        name: str = "",
    ) -> "SparsePattern":
        """Build a pattern from coordinate lists.

        Parameters
        ----------
        n:
            Matrix order.
        rows, cols:
            Nonzero coordinates (duplicates are merged).
        symmetric:
            Declare the matrix symmetric (matrix *type*).
        symmetrize_pattern:
            Additionally store the pattern of ``A + Aᵀ``.
        """
        rows = np.asarray(list(rows) if not isinstance(rows, np.ndarray) else rows, dtype=np.int64)
        cols = np.asarray(list(cols) if not isinstance(cols, np.ndarray) else cols, dtype=np.int64)
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have the same length")
        if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
            raise ValueError("coordinate out of range")
        if symmetrize_pattern or symmetric:
            rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
        rows, cols = _dedupe_sorted_rows(n, rows, cols)
        counts = np.bincount(rows, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(n=n, indptr=indptr, indices=cols.astype(np.int64), symmetric=symmetric, name=name)

    @classmethod
    def from_dense(cls, dense: np.ndarray, *, symmetric: bool = False, name: str = "") -> "SparsePattern":
        """Build a pattern from the nonzeros of a dense array."""
        dense = np.asarray(dense)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("dense must be a square 2-D array")
        rows, cols = np.nonzero(dense)
        return cls.from_coo(dense.shape[0], rows, cols, symmetric=symmetric, name=name)

    @classmethod
    def from_scipy(cls, mat, *, symmetric: bool = False, name: str = "") -> "SparsePattern":
        """Build a pattern from any scipy sparse matrix."""
        coo = mat.tocoo()
        if coo.shape[0] != coo.shape[1]:
            raise ValueError("matrix must be square")
        return cls.from_coo(coo.shape[0], coo.row, coo.col, symmetric=symmetric, name=name)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], *, symmetric: bool = False, name: str = "") -> "SparsePattern":
        """Build a pattern from an adjacency-list style row description."""
        n = len(rows)
        rr: list[int] = []
        cc: list[int] = []
        for i, row in enumerate(rows):
            for j in row:
                rr.append(i)
                cc.append(j)
        return cls.from_coo(n, rr, cc, symmetric=symmetric, name=name)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Number of stored nonzeros (full pattern, both triangles)."""
        return int(self.indices.size)

    def row(self, i: int) -> np.ndarray:
        """Column indices of row ``i`` (sorted)."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def degrees(self) -> np.ndarray:
        """Off-diagonal degree of every row in the symmetrized pattern."""
        indptr, _indices = self.adjacency()
        return np.diff(indptr).astype(np.int64)

    def has_diagonal(self) -> bool:
        """Whether every diagonal entry is present.

        Column indices are unique within a row, so each row contributes at
        most one ``row == col`` entry; the diagonal is complete exactly when
        there are ``n`` such entries — one vectorized pass, no per-row loop.
        """
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        return int(np.count_nonzero(rows == self.indices)) == self.n

    def is_structurally_symmetric(self) -> bool:
        """Check whether the stored pattern equals its transpose."""
        # rows are sorted and duplicate-free, so the row-major keys are
        # already sorted: the pattern is symmetric iff the transposed keys,
        # once sorted, are the same array
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        cols = self.indices.astype(np.int64, copy=False)
        tkey = cols * self.n + rows
        tkey.sort()
        return np.array_equal(rows * self.n + cols, tkey)

    def structural_symmetry(self) -> float:
        """Fraction of off-diagonal entries whose transpose entry is present."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        cols = self.indices
        off = rows != cols
        rows, cols = rows[off], cols[off]
        if rows.size == 0:
            return 1.0
        key = rows * self.n + cols
        tkey = cols * self.n + rows
        present = np.isin(tkey, key, assume_unique=False)
        return float(np.count_nonzero(present)) / float(rows.size)

    # ------------------------------------------------------------------ #
    # transforms
    # ------------------------------------------------------------------ #
    def transpose(self) -> "SparsePattern":
        """Pattern of the transpose."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        return SparsePattern.from_coo(self.n, self.indices, rows, symmetric=self.symmetric, name=self.name)

    def symmetrized(self) -> "SparsePattern":
        """Pattern of ``A + Aᵀ`` (used for orderings and the elimination tree)."""
        if self.symmetric or self.is_structurally_symmetric():
            return self
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        return SparsePattern.from_coo(
            self.n,
            np.concatenate([rows, self.indices]),
            np.concatenate([self.indices, rows]),
            symmetric=self.symmetric,
            name=self.name,
        )

    def with_diagonal(self) -> "SparsePattern":
        """Pattern with every diagonal entry added."""
        if self.has_diagonal():
            return self
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        diag = np.arange(self.n, dtype=np.int64)
        return SparsePattern.from_coo(
            self.n,
            np.concatenate([rows, diag]),
            np.concatenate([self.indices, diag]),
            symmetric=self.symmetric,
            name=self.name,
        )

    def permuted(self, perm: np.ndarray) -> "SparsePattern":
        """Symmetric permutation ``P A Pᵀ``.

        ``perm[k]`` is the original index placed at position ``k`` (i.e. the
        *ordering*: column ``perm[0]`` is eliminated first).

        One relabel and one sort: a permutation keeps the entries distinct,
        and new row ``k`` is old row ``perm[k]``, so only the columns within
        a row need reordering.
        """
        n = self.n
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
            raise ValueError("perm must be a permutation of range(n)")
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n, dtype=np.int64)
        row_nnz = np.diff(self.indptr)
        key = np.repeat(inv * n, row_nnz) + inv[self.indices]
        key.sort()
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(row_nnz[perm], out=indptr[1:])
        return SparsePattern(n=n, indptr=indptr, indices=key % n, symmetric=self.symmetric, name=self.name)

    def submatrix(self, keep: np.ndarray) -> "SparsePattern":
        """Principal submatrix on the (sorted) index set ``keep``."""
        keep = np.unique(np.asarray(keep, dtype=np.int64).ravel())
        pos = -np.ones(self.n, dtype=np.int64)
        pos[keep] = np.arange(keep.size, dtype=np.int64)
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        cols = self.indices
        mask = (pos[rows] >= 0) & (pos[cols] >= 0)
        return SparsePattern.from_coo(
            int(keep.size), pos[rows[mask]], pos[cols[mask]], symmetric=self.symmetric, name=self.name
        )

    def to_scipy(self):
        """Convert to a ``scipy.sparse.csr_matrix`` of ones."""
        from scipy import sparse

        data = np.ones(self.nnz, dtype=np.float64)
        return sparse.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=(self.n, self.n))

    def to_networkx(self):
        """Adjacency graph (undirected, no self loops) as a networkx Graph."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        sym = self.symmetrized()
        rows = np.repeat(np.arange(sym.n, dtype=np.int64), np.diff(sym.indptr))
        cols = sym.indices
        mask = rows < cols
        g.add_edges_from(zip(rows[mask].tolist(), cols[mask].tolist()))
        return g

    # ------------------------------------------------------------------ #
    # adjacency helpers used by orderings
    # ------------------------------------------------------------------ #
    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Symmetrized, diagonal-free adjacency as (indptr, indices)."""
        sym = self.symmetrized()
        rows = np.repeat(np.arange(sym.n, dtype=np.int64), np.diff(sym.indptr))
        cols = sym.indices
        mask = rows != cols
        rows, cols = rows[mask], cols[mask]
        counts = np.bincount(rows, minlength=sym.n)
        indptr = np.zeros(sym.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, cols

    # ------------------------------------------------------------------ #
    # dunder
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "SYM" if self.symmetric else "UNS"
        label = f" {self.name!r}" if self.name else ""
        return f"SparsePattern(n={self.n}, nnz={self.nnz}, {kind}{label})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePattern):
            return NotImplemented
        return (
            self.n == other.n
            and self.symmetric == other.symmetric
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        # structure only, like __eq__ — the name is a label, not identity;
        # cheap on purpose (hashing indices would cost O(nnz) per lookup)
        return hash((self.n, self.nnz, self.symmetric))
