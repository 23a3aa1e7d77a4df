"""Interfaces of the dynamic scheduling decision points.

The simulator hands each decision a small *context* object carrying exactly
the information the corresponding MUMPS mechanism would have at that moment:
the (possibly stale) remote views, the local state of the deciding processor
and the geometry of the node concerned.  Strategies must not reach into the
simulator; everything they may legitimately use is in the context.

A type-2 slave selection weighs at most a few dozen candidates, so the
selectors work on plain Python floats: numpy's per-call overhead would
dominate.  Where they replace a numpy reduction, they keep numpy's rounding
(:func:`pairwise_sum`), so the choices do not depend on the container the
views arrive in.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "SlaveSelectionContext",
    "TaskSelectionContext",
    "SlaveSelector",
    "TaskSelector",
    "normalize_row_distribution",
    "pairwise_sum",
]


@dataclass(slots=True)
class SlaveSelectionContext:
    """Everything a master knows when it has to pick slaves for a type-2 node.

    Attributes
    ----------
    master_proc:
        The deciding processor (master of the node).
    node:
        Assembly-tree node index.
    npiv, nfront, ncb:
        Geometry of the front; ``ncb`` rows must be distributed to slaves.
    symmetric:
        Storage convention of the front.
    candidates:
        Processors allowed to act as slaves (the master itself is excluded).
        Any sequence of ints (a list, a tuple or a numpy array).
    memory_view, effective_memory_view, load_view:
        Float sequences indexed by processor.  Both engines hand over
        ``array("d")`` rows (Python floats on indexing, ``tobytes()`` for
        comparisons); a list or a numpy array works as well.
    memory_view:
        ``memory_view[q]`` — believed stack occupation of processor ``q``
        (instantaneous metric of Section 4).
    effective_memory_view:
        Section 5.1 metric: instantaneous memory + current-subtree peak +
        predicted next master task, per processor.
    load_view:
        Believed remaining workload (flops) per processor.
    own_load:
        Remaining workload of the master.
    own_memory:
        Current stack occupation of the master.
    min_rows_per_slave, max_slaves:
        Granularity constraints from the simulation configuration.
    """

    master_proc: int
    node: int
    npiv: int
    nfront: int
    ncb: int
    symmetric: bool
    candidates: Sequence[int]
    memory_view: Sequence[float]
    effective_memory_view: Sequence[float]
    load_view: Sequence[float]
    own_load: float
    own_memory: float
    min_rows_per_slave: int = 1
    max_slaves: int = 1


@dataclass
class TaskSelectionContext:
    """What a processor knows when it picks the next task from its pool.

    Attributes
    ----------
    proc:
        The deciding processor.
    pool:
        The ready tasks, bottom to top (index ``len(pool) - 1`` is the top of
        the stack, i.e. what the original MUMPS strategy would pick).
    current_memory:
        Current stack occupation of the processor.
    current_subtree:
        Leaf-subtree root currently being processed, or ``-1``.
    current_subtree_peak:
        Peak (entries) of that subtree — the "including peak of subtree" term
        of Algorithm 2.
    observed_peak:
        Peak of the working area observed locally since the beginning of the
        factorization (the reference level of Algorithm 2).
    """

    proc: int
    pool: Sequence
    current_memory: float
    current_subtree: int
    current_subtree_peak: float
    observed_peak: float


class SlaveSelector(abc.ABC):
    """Strategy choosing the slaves (and their row counts) of a type-2 node."""

    name = "abstract"

    @abc.abstractmethod
    def select(self, ctx: SlaveSelectionContext) -> list[tuple[int, int]]:
        """Return ``[(processor, rows), ...]`` covering all ``ctx.ncb`` rows."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class TaskSelector(abc.ABC):
    """Strategy choosing which ready task of the local pool to activate next."""

    name = "abstract"

    @abc.abstractmethod
    def select(self, ctx: TaskSelectionContext) -> int:
        """Return the index (into ``ctx.pool``) of the task to activate."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def normalize_row_distribution(
    assignment: list[tuple[int, int]],
    ncb: int,
    candidates: Sequence[int],
) -> list[tuple[int, int]]:
    """Sanitise a slave-row assignment.

    Drops non-candidate processors and non-positive row counts, clips the
    total to ``ncb`` and hands any remaining rows to the first listed slave
    (or to the lowest candidate when the strategy returned nothing usable).
    The simulator always passes strategy output through this function so a
    buggy or degenerate strategy cannot lose rows of the front.  A
    ``frozenset`` of candidates is used as is (the SoA engine keeps one per
    type-2 node); any other sequence is converted.
    """
    if ncb <= 0:
        return []
    if isinstance(candidates, frozenset):
        candidate_set = candidates
    else:
        candidate_set = frozenset(int(c) for c in candidates)
    cleaned: list[tuple[int, int]] = []
    remaining = ncb
    for proc, rows in assignment:
        proc = int(proc)
        rows = int(rows)
        if proc not in candidate_set or rows <= 0 or remaining <= 0:
            continue
        rows = min(rows, remaining)
        cleaned.append((proc, rows))
        remaining -= rows
    if remaining > 0:
        if cleaned:
            proc, rows = cleaned[0]
            cleaned[0] = (proc, rows + remaining)
        elif candidate_set:
            cleaned.append((min(candidate_set), remaining))
    return cleaned


def pairwise_sum(values: Sequence[float]) -> float:
    """``float(np.sum(values))``, bit for bit, on a sequence of floats.

    numpy sums a float64 array pairwise: fewer than 8 values in a plain
    loop; up to 128 in 8 interleaved accumulators folded as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the tail; longer arrays
    split in two at a multiple of 8 below the middle and recurse.
    """
    return _pairwise(values, 0, len(values))


def _pairwise(a: Sequence[float], lo: int, n: int) -> float:
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += a[i]
        return res
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = a[lo : lo + 8]
        stop = lo + n - n % 8
        for i in range(lo + 8, stop, 8):
            r0 += a[i]
            r1 += a[i + 1]
            r2 += a[i + 2]
            r3 += a[i + 3]
            r4 += a[i + 4]
            r5 += a[i + 5]
            r6 += a[i + 6]
            r7 += a[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(stop, lo + n):
            res += a[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise(a, lo, half) + _pairwise(a, lo + half, n - half)
