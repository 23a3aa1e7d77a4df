"""Entry counts and flop models of a frontal matrix.

The paper measures memory in *entries* (floating-point values) and uses the
number of floating-point operations of the elimination as the workload metric
of MUMPS' default dynamic scheduling ("the number of floating-point
operations still to be done, where only the operations corresponding to the
elimination process are taken into account", Section 3).  The formulas below
provide exactly those two currencies for both the symmetric (LDLᵀ, lower
triangle stored) and unsymmetric (LU, full front stored) cases.

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

__all__ = [
    "front_entries",
    "factor_entries",
    "cb_entries",
    "partial_factorization_flops",
    "assembly_flops",
    "type2_master_flops",
    "type2_slave_flops",
    "type2_slave_row_flops",
    "type2_slave_block_entries",
    "type2_slave_factor_entries",
]


def _check(npiv: int, nfront: int) -> None:
    if npiv < 0 or nfront < 0 or npiv > nfront:
        raise ValueError(f"invalid front geometry npiv={npiv}, nfront={nfront}")


def _sum_range(lo: int, hi: int) -> int:
    """``sum(r for r in range(lo, hi + 1))`` for ``lo <= hi`` (else 0)."""
    if hi < lo:
        return 0
    return (hi * (hi + 1)) // 2 - ((lo - 1) * lo) // 2


def _sum_sq_range(lo: int, hi: int) -> int:
    """``sum(r*r for r in range(lo, hi + 1))`` for ``lo <= hi`` (else 0)."""
    if hi < lo:
        return 0

    def s2(m: int) -> int:
        return m * (m + 1) * (2 * m + 1) // 6

    return s2(hi) - s2(lo - 1)


def front_entries(nfront: int, symmetric: bool) -> int:
    """Entries of the full frontal matrix."""
    if nfront < 0:
        raise ValueError("nfront must be >= 0")
    if symmetric:
        return nfront * (nfront + 1) // 2
    return nfront * nfront


def factor_entries(npiv: int, nfront: int, symmetric: bool) -> int:
    """Entries of the factors produced by the partial factorization.

    Symmetric case: the ``npiv × npiv`` pivot triangle plus the
    ``ncb × npiv`` off-diagonal block of ``L``.
    Unsymmetric case: the ``npiv`` rows of ``U`` (length ``nfront`` each) and
    the ``ncb × npiv`` block of ``L`` below the pivot block.
    """
    _check(npiv, nfront)
    ncb = nfront - npiv
    if symmetric:
        return npiv * (npiv + 1) // 2 + ncb * npiv
    return npiv * nfront + ncb * npiv


def cb_entries(npiv: int, nfront: int, symmetric: bool) -> int:
    """Entries of the contribution block stacked after the partial factorization."""
    _check(npiv, nfront)
    ncb = nfront - npiv
    if symmetric:
        return ncb * (ncb + 1) // 2
    return ncb * ncb


def partial_factorization_flops(npiv: int, nfront: int, symmetric: bool) -> float:
    """Flops of eliminating ``npiv`` pivots from a front of order ``nfront``.

    At elimination step ``k`` (1-based) the trailing submatrix has order
    ``r = nfront - k``.  The unsymmetric model counts one division per entry
    of the pivot column plus a rank-1 update of the trailing ``r × r`` block
    (2 flops per entry); the symmetric model updates only the lower triangle.
    """
    _check(npiv, nfront)
    ncb = nfront - npiv
    lo, hi = ncb, nfront - 1  # r ranges over [ncb, nfront-1]
    s1 = _sum_range(lo, hi)
    s2 = _sum_sq_range(lo, hi)
    if symmetric:
        # divisions: r per step; update of the lower triangle: r*(r+1) flops
        return float(s1 + s2 + s1)
    # divisions: r per step; rank-1 update: 2*r*r flops
    return float(s1 + 2 * s2)


def assembly_flops(children_cb_entries: Iterable[int]) -> float:
    """Flops (one addition per entry) of assembling the children CBs."""
    return float(sum(int(x) for x in children_cb_entries))


def type2_master_flops(npiv: int, nfront: int, symmetric: bool) -> float:
    """Flops performed by the *master* of a type-2 node.

    The master eliminates the fully summed pivot block and computes the
    factor rows it owns; the update of the contribution rows is delegated to
    the slaves.  At step ``k`` the master works on a panel of
    ``npiv - k`` remaining pivot rows of length ``nfront - k``.
    """
    _check(npiv, nfront)
    total = 0.0
    # closed-form of sum_{k=1..npiv} [ (npiv-k) + c*(npiv-k)*(nfront-k) ]
    # computed term-by-term via the helper sums to stay exact.
    # Let a = npiv - k (ranges npiv-1 .. 0) and b = nfront - k = a + ncb.
    ncb = nfront - npiv
    # sum a = npiv*(npiv-1)/2 ; sum a*b = sum a^2 + ncb * sum a
    sum_a = npiv * (npiv - 1) // 2
    sum_a2 = _sum_sq_range(0, npiv - 1)
    sum_ab = sum_a2 + ncb * sum_a
    if symmetric:
        total = float(sum_a + sum_ab)
    else:
        total = float(sum_a + 2 * sum_ab)
    return total


def type2_slave_flops(npiv: int, nfront: int, nrows: int, symmetric: bool) -> float:
    """Flops performed by one slave of a type-2 node owning ``nrows`` CB rows.

    Each of the slave's rows is updated by the ``npiv`` eliminations: at step
    ``k`` the row receives a scaled pivot-row of length ``nfront - k``
    (2 flops per entry in the unsymmetric model).  The symmetric model only
    touches the part of the row within the lower triangle, which averages to
    roughly half of the unsymmetric work.
    """
    _check(npiv, nfront)
    if nrows < 0 or nrows > nfront - npiv:
        raise ValueError("nrows must be between 0 and ncb")
    return float(nrows * type2_slave_row_flops(npiv, nfront, symmetric))


def type2_slave_row_flops(npiv: int, nfront: int, symmetric: bool) -> int:
    """Flops of one CB row of a type-2 slave (exact integer).

    ``type2_slave_flops(npiv, nfront, nrows, symmetric)`` is
    ``float(nrows * type2_slave_row_flops(npiv, nfront, symmetric))``.
    """
    _check(npiv, nfront)
    row_work = _sum_range(nfront - npiv, nfront - 1)  # sum_{k=1..npiv} (nfront - k)
    return row_work if symmetric else 2 * row_work


def type2_slave_block_entries(npiv: int, nfront: int, nrows: int, symmetric: bool) -> int:
    """Entries of the row block held by a slave owning ``nrows`` CB rows.

    Unsymmetric fronts store full rows (``nrows × nfront``); in the symmetric
    case a CB row of global index ``i`` only spans ``npiv + i`` columns of the
    lower triangle, which averages to ``npiv + (ncb + 1) / 2`` per row.
    """
    _check(npiv, nfront)
    ncb = nfront - npiv
    if nrows < 0 or nrows > ncb:
        raise ValueError("nrows must be between 0 and ncb")
    if symmetric:
        return nrows * npiv + (nrows * (ncb + 1)) // 2
    return nrows * nfront


def type2_slave_factor_entries(npiv: int, nfront: int, nrows: int, symmetric: bool) -> int:
    """Factor entries produced by a slave block (the ``L`` part of its rows)."""
    _check(npiv, nfront)
    ncb = nfront - npiv
    if nrows < 0 or nrows > ncb:
        raise ValueError("nrows must be between 0 and ncb")
    return nrows * npiv
