"""Entry counts and flop models of a frontal matrix.

The paper measures memory in *entries* (floating-point values) and uses the
number of floating-point operations of the elimination as the workload metric
of MUMPS' default dynamic scheduling ("the number of floating-point
operations still to be done, where only the operations corresponding to the
elimination process are taken into account", Section 3).  The formulas below
provide exactly those two currencies for both the symmetric (LDLᵀ, lower
triangle stored) and unsymmetric (LU, full front stored) cases.

This module is the only place where a front-size or flop formula is spelled.
Each function is one closed form that takes either Python ints or int64
arrays of one shape: :class:`~repro.symbolic.assembly_tree.AssemblyTree`
builds its cached per-node columns by calling it on its ``npiv`` / ``nfront``
arrays, and :class:`~repro.runtime.geometry.SimGeometry` reads the type-2
slave coefficients from :func:`type2_slave_block_coefficients` and
:func:`type2_slave_row_flops`.  Scalar arguments come from outside and are
checked; arrays come from an ``AssemblyTree``, whose constructor validated
them, and are not.

Conventions
-----------
``npiv``
    Number of fully summed variables of the front.
``nfront``
    Order of the frontal matrix; ``ncb = nfront - npiv`` is the order of the
    contribution block.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "front_entries",
    "factor_entries",
    "cb_entries",
    "master_entries",
    "partial_factorization_flops",
    "assembly_flops",
    "type2_master_flops",
    "type2_slave_flops",
    "type2_slave_row_flops",
    "type2_slave_block_coefficients",
    "type2_slave_block_entries",
    "type2_slave_factor_entries",
]


#: arrays come from a validated AssemblyTree and skip the scalar checks; the
#: exact-type test is the cheapest one for the per-node scalar callers
_ndarray = np.ndarray


def _check(npiv, nfront, nrows=0) -> None:
    """Reject an impossible scalar geometry (arrays pass unchecked)."""
    if type(npiv) is _ndarray:
        return
    if npiv < 0 or nfront < 0 or npiv > nfront:
        raise ValueError(f"invalid front geometry npiv={npiv}, nfront={nfront}")
    if nrows < 0 or nrows > nfront - npiv:
        raise ValueError("nrows must be between 0 and ncb")


def _float(x):
    """``float(x)`` of a scalar; a float64 copy of an int64 array.

    Flop counts are integral and far below 2**53, so either conversion is
    exact.
    """
    return x.astype(np.float64) if type(x) is _ndarray else float(x)


def _sum_range(lo, hi):
    """``sum(r for r in range(lo, hi + 1))``; 0 when ``hi == lo - 1``."""
    return (hi * (hi + 1)) // 2 - ((lo - 1) * lo) // 2


def _sum_sq_range(lo, hi):
    """``sum(r*r for r in range(lo, hi + 1))``; 0 when ``hi == lo - 1``."""

    def s2(m):
        return m * (m + 1) * (2 * m + 1) // 6

    return s2(hi) - s2(lo - 1)


def front_entries(nfront, symmetric: bool):
    """Entries of the full frontal matrix."""
    if type(nfront) is not _ndarray and nfront < 0:
        raise ValueError("nfront must be >= 0")
    if symmetric:
        return nfront * (nfront + 1) // 2
    return nfront * nfront


def master_entries(npiv, nfront, symmetric: bool):
    """Entries of the *master part* of a front when treated as type 2.

    The master holds the fully summed rows of the front: ``npiv × nfront``
    entries in the unsymmetric case (the ``U`` rows), and the pivot
    triangle in the symmetric case (the rows below belong to the slaves'
    blocks, Figure 3 of the paper).  This is the quantity the paper's
    splitting threshold (2·10⁶ entries) applies to, and it is also what
    the master's factors amount to, so that master + slave factor pieces
    always sum to :func:`factor_entries`.
    """
    _check(npiv, nfront)
    if symmetric:
        return npiv * (npiv + 1) // 2
    return npiv * nfront


def factor_entries(npiv, nfront, symmetric: bool):
    """Entries of the factors produced by the partial factorization.

    The master part (the ``npiv × npiv`` pivot triangle when symmetric, the
    ``npiv`` rows of ``U`` of length ``nfront`` otherwise) plus the
    ``ncb × npiv`` block of ``L`` below the pivot block.
    """
    return master_entries(npiv, nfront, symmetric) + (nfront - npiv) * npiv


def cb_entries(npiv, nfront, symmetric: bool):
    """Entries of the contribution block stacked after the partial factorization."""
    _check(npiv, nfront)
    return front_entries(nfront - npiv, symmetric)


def partial_factorization_flops(npiv, nfront, symmetric: bool):
    """Flops of eliminating ``npiv`` pivots from a front of order ``nfront``.

    At elimination step ``k`` (1-based) the trailing submatrix has order
    ``r = nfront - k``.  The unsymmetric model counts one division per entry
    of the pivot column plus a rank-1 update of the trailing ``r × r`` block
    (2 flops per entry); the symmetric model updates only the lower triangle.
    """
    _check(npiv, nfront)
    lo, hi = nfront - npiv, nfront - 1  # r ranges over [ncb, nfront-1]
    s1 = _sum_range(lo, hi)
    s2 = _sum_sq_range(lo, hi)
    if symmetric:
        # divisions: r per step; update of the lower triangle: r*(r+1) flops
        return _float(s1 + s2 + s1)
    # divisions: r per step; rank-1 update: 2*r*r flops
    return _float(s1 + 2 * s2)


def assembly_flops(children_cb_entries: Iterable[int]) -> float:
    """Flops (one addition per entry) of assembling the children CBs."""
    return float(sum(int(x) for x in children_cb_entries))


def type2_master_flops(npiv, nfront, symmetric: bool):
    """Flops performed by the *master* of a type-2 node.

    The master eliminates the fully summed pivot block and computes the
    factor rows it owns; the update of the contribution rows is delegated to
    the slaves.  At step ``k`` the master works on a panel of
    ``a = npiv - k`` remaining pivot rows of length ``b = nfront - k``:
    ``sum_k [a + c*a*b]`` with ``c`` 1 (symmetric) or 2, where
    ``sum a*b = sum a^2 + ncb * sum a`` over ``a`` in ``0 .. npiv-1``.
    """
    _check(npiv, nfront)
    sum_a = npiv * (npiv - 1) // 2
    sum_ab = _sum_sq_range(0, npiv - 1) + (nfront - npiv) * sum_a
    if symmetric:
        return _float(sum_a + sum_ab)
    return _float(sum_a + 2 * sum_ab)


def type2_slave_flops(npiv, nfront, nrows, symmetric: bool):
    """Flops performed by one slave of a type-2 node owning ``nrows`` CB rows.

    Each of the slave's rows is updated by the ``npiv`` eliminations: at step
    ``k`` the row receives a scaled pivot-row of length ``nfront - k``
    (2 flops per entry in the unsymmetric model).  The symmetric model only
    touches the part of the row within the lower triangle, which averages to
    roughly half of the unsymmetric work.
    """
    _check(npiv, nfront, nrows)
    return _float(nrows * type2_slave_row_flops(npiv, nfront, symmetric))


def type2_slave_row_flops(npiv, nfront, symmetric: bool):
    """Flops of one CB row of a type-2 slave (exact integer).

    ``type2_slave_flops(npiv, nfront, nrows, symmetric)`` is
    ``float(nrows * type2_slave_row_flops(npiv, nfront, symmetric))``.
    """
    _check(npiv, nfront)
    row_work = _sum_range(nfront - npiv, nfront - 1)  # sum_{k=1..npiv} (nfront - k)
    return row_work if symmetric else 2 * row_work


def type2_slave_block_coefficients(npiv, nfront, symmetric: bool):
    """``(a, b)`` such that a slave block of ``nrows`` CB rows holds
    ``nrows * a + (nrows * b) // 2`` entries.

    Unsymmetric fronts store full rows: ``(nfront, 0)``.  In the symmetric
    case a CB row of global index ``i`` only spans ``npiv + i`` columns of
    the lower triangle, which averages to ``npiv + (ncb + 1) / 2`` per row:
    ``(npiv, ncb + 1)``.  :func:`type2_slave_block_entries` is defined from
    these; the simulator's per-slave loop inlines the same expression.
    """
    _check(npiv, nfront)
    if symmetric:
        return npiv, nfront - npiv + 1
    return nfront, 0


def type2_slave_block_entries(npiv, nfront, nrows, symmetric: bool):
    """Entries of the row block held by a slave owning ``nrows`` CB rows."""
    _check(npiv, nfront, nrows)
    a, b = type2_slave_block_coefficients(npiv, nfront, symmetric)
    return nrows * a + (nrows * b) // 2


def type2_slave_factor_entries(npiv, nfront, nrows, symmetric: bool):
    """Factor entries produced by a slave block (the ``L`` part of its rows)."""
    _check(npiv, nfront, nrows)
    return nrows * npiv
