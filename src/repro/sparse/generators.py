"""Synthetic sparse-pattern generators.

The paper evaluates on eight matrices taken from the Rutherford-Boeing,
University of Florida and PARASOL collections.  Those files are not available
offline, so :mod:`repro.experiments.problems` builds *structural analogues*
with the generators below.  Each generator is chosen so that the analogue
lands in the same structural regime as the original matrix (3-D FEM, shell
structure, normal equations of an LP matrix, circuit/harmonic-balance,
3-D wave propagation), because the regime — not the exact entries — is what
drives the assembly-tree topology and hence the memory behaviour studied in
the paper.

All generators are deterministic given their ``seed``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.sparse.pattern import SparsePattern

__all__ = [
    "grid_2d",
    "grid_3d",
    "fem_block_pattern",
    "normal_equations",
    "circuit_pattern",
    "random_pattern",
    "arrow_pattern",
    "banded_pattern",
]


def _grid_offsets(stencil: int, dims: int) -> list[tuple[int, ...]]:
    """Neighbour offsets for the requested stencil."""
    if dims == 2:
        if stencil == 5:
            return [(-1, 0), (1, 0), (0, -1), (0, 1)]
        if stencil == 9:
            return [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]
        raise ValueError("2-D stencil must be 5 or 9")
    if dims == 3:
        if stencil == 7:
            return [
                (-1, 0, 0), (1, 0, 0),
                (0, -1, 0), (0, 1, 0),
                (0, 0, -1), (0, 0, 1),
            ]
        if stencil == 27:
            return [
                (di, dj, dk)
                for di in (-1, 0, 1)
                for dj in (-1, 0, 1)
                for dk in (-1, 0, 1)
                if (di, dj, dk) != (0, 0, 0)
            ]
        raise ValueError("3-D stencil must be 7 or 27")
    raise ValueError("dims must be 2 or 3")


def grid_2d(nx: int, ny: int, *, stencil: int = 5, symmetric: bool = True, name: str = "") -> SparsePattern:
    """Pattern of a 2-D ``nx × ny`` grid operator (5- or 9-point stencil)."""
    if nx < 1 or ny < 1:
        raise ValueError("grid dimensions must be positive")
    n = nx * ny
    idx = np.arange(n, dtype=np.int64).reshape(nx, ny)
    rows = [np.arange(n, dtype=np.int64)]
    cols = [np.arange(n, dtype=np.int64)]
    for di, dj in _grid_offsets(stencil, 2):
        src = idx[max(0, -di):nx - max(0, di), max(0, -dj):ny - max(0, dj)]
        dst = idx[max(0, di):nx - max(0, -di), max(0, dj):ny - max(0, -dj)]
        rows.append(src.ravel())
        cols.append(dst.ravel())
    return SparsePattern.from_coo(
        n, np.concatenate(rows), np.concatenate(cols), symmetric=symmetric, name=name or f"grid2d-{nx}x{ny}-s{stencil}"
    )


def grid_3d(
    nx: int,
    ny: int,
    nz: int,
    *,
    stencil: int = 7,
    symmetric: bool = True,
    name: str = "",
) -> SparsePattern:
    """Pattern of a 3-D ``nx × ny × nz`` grid operator (7- or 27-point stencil)."""
    if nx < 1 or ny < 1 or nz < 1:
        raise ValueError("grid dimensions must be positive")
    n = nx * ny * nz
    idx = np.arange(n, dtype=np.int64).reshape(nx, ny, nz)
    rows = [np.arange(n, dtype=np.int64)]
    cols = [np.arange(n, dtype=np.int64)]
    for di, dj, dk in _grid_offsets(stencil, 3):
        src = idx[
            max(0, -di):nx - max(0, di),
            max(0, -dj):ny - max(0, dj),
            max(0, -dk):nz - max(0, dk),
        ]
        dst = idx[
            max(0, di):nx - max(0, -di),
            max(0, dj):ny - max(0, -dj),
            max(0, dk):nz - max(0, -dk),
        ]
        rows.append(src.ravel())
        cols.append(dst.ravel())
    return SparsePattern.from_coo(
        n,
        np.concatenate(rows),
        np.concatenate(cols),
        symmetric=symmetric,
        name=name or f"grid3d-{nx}x{ny}x{nz}-s{stencil}",
    )


def fem_block_pattern(base: SparsePattern, dofs_per_node: int, *, name: str = "") -> SparsePattern:
    """Expand every node of ``base`` into ``dofs_per_node`` coupled unknowns.

    This mimics vector finite-element problems (elasticity has 3 displacement
    components per mesh node, shells up to 6), which is what makes matrices
    such as BMWCRA_1 or SHIP_003 denser per node than scalar Laplacians.
    """
    if dofs_per_node < 1:
        raise ValueError("dofs_per_node must be >= 1")
    d = dofs_per_node
    rows = np.repeat(np.arange(base.n, dtype=np.int64), np.diff(base.indptr))
    cols = base.indices
    block = np.arange(d, dtype=np.int64)
    # Kronecker expansion: (i, j) -> {(i*d + a, j*d + b) : a, b in [0, d)}
    rr = np.repeat(rows, d * d) * d + np.tile(np.repeat(block, d), rows.size)
    cc = np.repeat(cols, d * d) * d + np.tile(np.tile(block, d), cols.size)
    return SparsePattern.from_coo(
        base.n * d, rr, cc, symmetric=base.symmetric, name=name or f"{base.name}-dof{d}"
    )


def normal_equations(
    m: int,
    n: int,
    *,
    nnz_per_row: int = 6,
    seed: int = 0,
    dense_rows: int = 0,
    name: str = "",
) -> SparsePattern:
    """Pattern of ``A·Aᵀ`` for a random ``m × n`` sparse matrix ``A``.

    Linear-programming interior-point methods factorize the normal equations
    ``A·Aᵀ``; GUPTA3 in the paper is such a matrix.  A few optional
    ``dense_rows`` of ``A`` (columns touching many rows) reproduce the very
    dense rows of ``A·Aᵀ`` typical of these problems, which lead to huge
    fronts near the root of the assembly tree.
    """
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(seed)
    rows_a = np.repeat(np.arange(m, dtype=np.int64), nnz_per_row)
    cols_a = rng.integers(0, n, size=m * nnz_per_row, dtype=np.int64)
    if dense_rows:
        # dense columns of A: a handful of columns shared by many rows
        dense_cols = rng.choice(n, size=dense_rows, replace=False)
        extra_rows = np.repeat(
            rng.choice(m, size=max(2, m // 3), replace=False).astype(np.int64), dense_rows
        )
        extra_cols = np.tile(dense_cols.astype(np.int64), max(2, m // 3))
        rows_a = np.concatenate([rows_a, extra_rows])
        cols_a = np.concatenate([cols_a, extra_cols])

    # the distinct rows of every column of A, grouped by column: each group
    # is a clique of A·Aᵀ, whose t-th pair is (members[t // k], members[t % k])
    cols_sorted, members = np.divmod(np.unique(cols_a * m + rows_a), m)
    starts = np.flatnonzero(np.diff(cols_sorted, prepend=-1))
    k = np.diff(np.append(starts, members.size))
    npairs = k * k
    first = np.repeat(starts, npairs)
    t = np.arange(first.size, dtype=np.int64) - np.repeat(np.cumsum(npairs) - npairs, npairs)
    k = np.repeat(k, npairs)
    rr = [np.arange(m, dtype=np.int64), members[first + t // k]]
    cc = [np.arange(m, dtype=np.int64), members[first + t % k]]
    return SparsePattern.from_coo(
        m, np.concatenate(rr), np.concatenate(cc), symmetric=True, name=name or f"normal-eqs-{m}x{n}"
    )


def circuit_pattern(
    n: int,
    *,
    avg_degree: float = 4.0,
    n_dense_rows: int = 4,
    dense_fraction: float = 0.3,
    symmetry: float = 0.5,
    seed: int = 0,
    name: str = "",
) -> SparsePattern:
    """Unsymmetric circuit-simulation-like pattern.

    Harmonic-balance matrices such as PRE2 and TWOTONE combine a mostly
    local, banded-ish coupling with a few nearly dense rows/columns (supply
    nets) and only partial structural symmetry.  The generator reproduces
    those three traits.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    nnz_target = int(avg_degree * n)
    # local couplings: mostly short-range (geometric offsets), like the chains
    # of devices along a net in a flattened circuit netlist
    offsets = np.minimum(rng.geometric(0.35, size=nnz_target), max(2, n // 200)).astype(np.int64)
    rows = rng.integers(0, n, size=nnz_target, dtype=np.int64)
    cols = np.clip(rows + rng.choice([-1, 1], size=nnz_target) * offsets, 0, n - 1)
    # a sprinkling of random long-range couplings (cross-net devices); kept
    # small because too many of them would turn the graph into an expander
    # with no small separators, which circuit matrices are not
    n_long = max(1, nnz_target // 12)
    rows_l = rng.integers(0, n, size=n_long, dtype=np.int64)
    cols_l = rng.integers(0, n, size=n_long, dtype=np.int64)
    rows = np.concatenate([rows, rows_l])
    cols = np.concatenate([cols, cols_l])
    # dense rows / columns
    if n_dense_rows > 0:
        dense_ids = rng.choice(n, size=n_dense_rows, replace=False).astype(np.int64)
        touched = rng.choice(n, size=max(1, int(dense_fraction * n)), replace=False).astype(np.int64)
        for d in dense_ids:
            rows = np.concatenate([rows, np.full(touched.size, d, dtype=np.int64)])
            cols = np.concatenate([cols, touched])
            # partial transpose coupling of the dense net
            half = touched[: touched.size // 2]
            rows = np.concatenate([rows, half])
            cols = np.concatenate([cols, np.full(half.size, d, dtype=np.int64)])
    # impose partial symmetry: mirror a fraction of the entries
    mirror = rng.random(rows.size) < symmetry
    rows = np.concatenate([rows, cols[mirror]])
    cols = np.concatenate([cols, rows[: mirror.size][mirror]])
    diag = np.arange(n, dtype=np.int64)
    rows = np.concatenate([rows, diag])
    cols = np.concatenate([cols, diag])
    return SparsePattern.from_coo(n, rows, cols, symmetric=False, name=name or f"circuit-{n}")


def random_pattern(
    n: int,
    *,
    density: float = 1e-3,
    symmetric: bool = False,
    seed: int = 0,
    with_diagonal: bool = True,
    name: str = "",
) -> SparsePattern:
    """Uniformly random pattern of the requested density."""
    if not 0 <= density <= 1:
        raise ValueError("density must be in [0, 1]")
    rng = np.random.default_rng(seed)
    nnz = int(density * n * n)
    rows = rng.integers(0, n, size=nnz, dtype=np.int64)
    cols = rng.integers(0, n, size=nnz, dtype=np.int64)
    if with_diagonal:
        diag = np.arange(n, dtype=np.int64)
        rows = np.concatenate([rows, diag])
        cols = np.concatenate([cols, diag])
    return SparsePattern.from_coo(
        n, rows, cols, symmetric=symmetric, symmetrize_pattern=symmetric, name=name or f"random-{n}"
    )


def arrow_pattern(n: int, *, bandwidth: int = 2, arrow_width: int = 1, name: str = "") -> SparsePattern:
    """Arrowhead pattern: banded matrix plus ``arrow_width`` dense last rows/cols.

    A textbook worst case for orderings and a useful stress test: the dense
    rows force a large root front whatever the ordering.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    diag = np.arange(n, dtype=np.int64)
    rows.append(diag)
    cols.append(diag)
    for off in range(1, bandwidth + 1):
        i = np.arange(n - off, dtype=np.int64)
        rows.extend([i, i + off])
        cols.extend([i + off, i])
    for k in range(arrow_width):
        j = n - 1 - k
        i = np.arange(n, dtype=np.int64)
        rows.extend([np.full(n, j, dtype=np.int64), i])
        cols.extend([i, np.full(n, j, dtype=np.int64)])
    return SparsePattern.from_coo(
        n, np.concatenate(rows), np.concatenate(cols), symmetric=True, name=name or f"arrow-{n}"
    )


def banded_pattern(n: int, *, bandwidth: int = 3, symmetric: bool = True, name: str = "") -> SparsePattern:
    """Simple banded pattern (used in unit tests: its etree is a path)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rows: list[np.ndarray] = [np.arange(n, dtype=np.int64)]
    cols: list[np.ndarray] = [np.arange(n, dtype=np.int64)]
    for off in range(1, bandwidth + 1):
        i = np.arange(n - off, dtype=np.int64)
        rows.extend([i, i + off])
        cols.extend([i + off, i])
    return SparsePattern.from_coo(
        n, np.concatenate(rows), np.concatenate(cols), symmetric=symmetric, name=name or f"band-{n}-{bandwidth}"
    )
