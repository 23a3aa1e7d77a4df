"""Tiny text-based exchange format for sparse patterns.

The paper's matrices come from the Rutherford-Boeing collection; the real
files are not available offline, but the reproduction still provides a small
pattern exchange format ("RBP", Rutherford-Boeing-pattern-lite) so generated
problems can be saved, inspected and reloaded, and so users with access to
real matrices can feed them in after a trivial conversion.

Format (plain text)::

    %%RBP <name> <SYM|UNS>
    <n> <nnz>
    <row> <col>            # one entry per line, 0-based

MatrixMarket ``pattern`` files are also accepted by :func:`load_pattern`.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from repro.sparse.pattern import SparsePattern

__all__ = ["save_pattern", "load_pattern"]


def save_pattern(pattern: SparsePattern, path: Union[str, os.PathLike]) -> None:
    """Write ``pattern`` to ``path`` in the RBP text format."""
    rows = np.repeat(np.arange(pattern.n, dtype=np.int64), np.diff(pattern.indptr))
    cols = pattern.indices
    kind = "SYM" if pattern.symmetric else "UNS"
    name = pattern.name or "pattern"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"%%RBP {name} {kind}\n")
        fh.write(f"{pattern.n} {pattern.nnz}\n")
        for r, c in zip(rows.tolist(), cols.tolist()):
            fh.write(f"{r} {c}\n")


def _ints(path, lineno: int, line: str, count: int, fields: int) -> list[int]:
    """The first ``count`` fields of a line of exactly ``fields`` fields, as ints >= 0."""
    parts = line.split()
    try:
        values = [int(x) for x in parts[:count]]
    except ValueError:
        values = []
    if len(parts) != fields or len(values) != count or min(values) < 0:
        raise ValueError(f"{path}:{lineno}: malformed line {line.strip()!r}")
    return values


def _entries(path, body, n: int, nnz: int, *, base: int, fields: int, last_line: int):
    """Exactly ``nnz`` in-range ``(row, col)`` entries from ``(lineno, line)`` pairs."""
    if len(body) != nnz:
        where = body[nnz][0] if len(body) > nnz else last_line
        raise ValueError(f"{path}:{where}: {len(body)} entry lines, but {nnz} declared")
    coords = np.array([_ints(path, i, ln, 2, fields) for i, ln in body], dtype=np.int64)
    coords = coords.reshape(nnz, 2) - base
    bad = np.flatnonzero(((coords < 0) | (coords >= n)).any(axis=1))
    if bad.size:
        lineno, line = body[bad[0]]
        raise ValueError(f"{path}:{lineno}: entry {line.strip()!r} out of range for order {n}")
    return coords[:, 0], coords[:, 1]


def _load_rbp(path, lines: list[str]) -> SparsePattern:
    header = lines[0].split()
    name = header[1] if len(header) > 1 else "pattern"
    symmetric = len(header) > 2 and header[2].upper() == "SYM"
    n, nnz = _ints(path, 2, lines[1] if len(lines) > 1 else "", 2, 2)
    body = [(i, ln) for i, ln in enumerate(lines[2:], start=3) if ln.strip()]
    rows, cols = _entries(path, body, n, nnz, base=0, fields=2, last_line=len(lines))
    return SparsePattern.from_coo(n, rows, cols, symmetric=symmetric, name=name)


#: fields of one MatrixMarket coordinate line: row, col, then the value(s).
_MM_FIELDS = {"pattern": 2, "integer": 3, "real": 3, "complex": 4}


def _load_matrixmarket(path, lines: list[str]) -> SparsePattern:
    header = lines[0].lower().split()
    if header[1:3] != ["matrix", "coordinate"] or len(header) < 4 or header[3] not in _MM_FIELDS:
        raise ValueError(f"{path}:1: unsupported MatrixMarket header {lines[0]!r}")
    symmetric = "symmetric" in lines[0].lower()
    body = [(i, ln) for i, ln in enumerate(lines[1:], 2) if ln.strip() and not ln.lstrip().startswith("%")]
    size_line, size = body[0] if body else (len(lines) + 1, "")
    nrows, ncols, nnz = _ints(path, size_line, size, 3, 3)
    if nrows != ncols:
        raise ValueError(f"{path}:{size_line}: only square MatrixMarket matrices are supported")
    fields = _MM_FIELDS[header[3]]
    rows, cols = _entries(path, body[1:], nrows, nnz, base=1, fields=fields, last_line=len(lines))
    return SparsePattern.from_coo(
        nrows, rows, cols, symmetric=symmetric, symmetrize_pattern=symmetric, name="matrixmarket"
    )


def load_pattern(path: Union[str, os.PathLike]) -> SparsePattern:
    """Load a pattern from an RBP or MatrixMarket coordinate file.

    A malformed or truncated file raises ``ValueError`` naming the file and
    the offending line: the entry count must match the declared ``nnz``,
    and every entry line must hold in-range integer coordinates.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    head = lines[0]
    if head.startswith("%%RBP"):
        return _load_rbp(path, lines)
    if head.startswith("%%MatrixMarket"):
        return _load_matrixmarket(path, lines)
    raise ValueError(f"{path}: unrecognised header {head[:40]!r}")
