"""The assembly tree of the multifrontal method.

Each node of the assembly tree owns a *frontal matrix* of order ``nfront``
whose first ``npiv`` variables are fully summed (eliminated at this node) and
whose trailing ``nfront - npiv`` variables form the *contribution block* (CB)
passed to the parent (Section 2 of the paper).  The tree, together with the
symmetric/unsymmetric storage convention, completely determines the factor
sizes, the contribution-block sizes and the elimination flop counts — which
is all the scheduling simulation needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.analysis import flops
from repro.sparse.pattern import SparsePattern
from repro.symbolic.colcounts import _column_counts_vectorized
from repro.symbolic.etree import _liu_etree, postorder
from repro.symbolic.supernodes import AMALGAMATION, _amalgamate, _fundamental

__all__ = ["FrontNode", "AssemblyTree", "build_assembly_tree"]


@dataclass(frozen=True)
class FrontNode:
    """Read-only view of one assembly-tree node."""

    index: int
    npiv: int
    nfront: int
    parent: int
    children: tuple[int, ...]
    variables: tuple[int, ...] = field(default=(), repr=False)

    @property
    def cb_order(self) -> int:
        """Order of the contribution block."""
        return self.nfront - self.npiv

    @property
    def is_leaf(self) -> bool:
        return len(self.children) == 0


class AssemblyTree:
    """Assembly tree with per-node frontal-matrix geometry.

    The tree is stored as parallel arrays (structure-of-arrays) so that the
    analysis passes can stay vectorised; :meth:`node` provides a convenient
    object view of a single node.

    Invariants (checked by :meth:`validate`):

    * nodes are numbered in a valid topological order — every child index is
      smaller than its parent index (postorder of the construction);
    * ``1 <= npiv[i] <= nfront[i]`` for every node;
    * the pivots of all nodes partition ``range(nvars)`` when the tree was
      built from a matrix (trees built synthetically may skip the variable
      lists).
    """

    def __init__(
        self,
        npiv: Sequence[int],
        nfront: Sequence[int],
        parent: Sequence[int],
        *,
        symmetric: bool = True,
        nvars: int | None = None,
        variables: Sequence[Sequence[int]] | None = None,
        name: str = "",
    ) -> None:
        self.npiv = np.asarray(npiv, dtype=np.int64).copy()
        self.nfront = np.asarray(nfront, dtype=np.int64).copy()
        self.parent = np.asarray(parent, dtype=np.int64).copy()
        if not (self.npiv.shape == self.nfront.shape == self.parent.shape):
            raise ValueError("npiv, nfront and parent must have the same length")
        self.symmetric = bool(symmetric)
        self.name = name
        self.nvars = int(nvars) if nvars is not None else int(self.npiv.sum())
        self.variables: list[tuple[int, ...]] | None = None
        if variables is not None:
            if len(variables) != self.nnodes:
                raise ValueError("variables must have one entry per node")
            self.variables = [tuple(int(v) for v in vs) for vs in variables]
        self._children: list[list[int]] = [[] for _ in range(self.nnodes)]
        for j in range(self.nnodes):
            p = int(self.parent[j])
            if p >= 0:
                self._children[p].append(j)
        #: lazy cache of the vectorized geometry arrays (the tree is immutable
        #: after construction, so the cache never needs invalidation)
        self._geometry_cache: dict[str, np.ndarray] = {}
        self.validate()

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #
    @property
    def nnodes(self) -> int:
        return int(self.npiv.size)

    @property
    def roots(self) -> list[int]:
        return [j for j in range(self.nnodes) if self.parent[j] < 0]

    def children(self, i: int) -> list[int]:
        return list(self._children[i])

    def node(self, i: int) -> FrontNode:
        return FrontNode(
            index=i,
            npiv=int(self.npiv[i]),
            nfront=int(self.nfront[i]),
            parent=int(self.parent[i]),
            children=tuple(self._children[i]),
            variables=tuple(self.variables[i]) if self.variables is not None else (),
        )

    def __iter__(self) -> Iterator[FrontNode]:
        return (self.node(i) for i in range(self.nnodes))

    def __len__(self) -> int:
        return self.nnodes

    def cb_order(self, i: int) -> int:
        return int(self.nfront[i] - self.npiv[i])

    def leaves(self) -> list[int]:
        return [j for j in range(self.nnodes) if not self._children[j]]

    def topological_order(self) -> np.ndarray:
        """Children-before-parents order (node indices already satisfy it)."""
        return np.arange(self.nnodes, dtype=np.int64)

    def reverse_topological_order(self) -> np.ndarray:
        return np.arange(self.nnodes - 1, -1, -1, dtype=np.int64)

    def subtree_nodes(self, root: int) -> list[int]:
        """All nodes of the subtree rooted at ``root`` (root included)."""
        out: list[int] = []
        stack = [root]
        while stack:
            j = stack.pop()
            out.append(j)
            stack.extend(self._children[j])
        return out

    def depth(self) -> int:
        """Number of levels of the tree (1 for a single node, 0 when empty)."""
        return int(self.levels().max()) + 1 if self.nnodes else 0

    def levels(self) -> np.ndarray:
        """Depth of every node (roots at level 0)."""
        level = np.zeros(self.nnodes, dtype=np.int64)
        for j in range(self.nnodes - 1, -1, -1):
            p = int(self.parent[j])
            level[j] = 0 if p < 0 else level[p] + 1
        return level

    def child_lists(self) -> list[list[int]]:
        """The children of every node, as one list of lists (no copies).

        The returned structure is shared with the tree — treat it as
        read-only.  :meth:`children` returns a defensive copy of one entry;
        the simulator's hot path iterates all nodes' children thousands of
        times per run, which this accessor serves without per-call copies.
        """
        return self._children

    # ------------------------------------------------------------------ #
    # per-node geometry columns (cached; the formulas live in
    # repro.analysis.flops and are applied to the npiv / nfront arrays)
    # ------------------------------------------------------------------ #
    def _cached(self, key: str, builder) -> np.ndarray:
        # getattr guard: trees unpickled from artifact stores written by
        # older versions have no cache attribute yet
        cache = getattr(self, "_geometry_cache", None)
        if cache is None:
            cache = self._geometry_cache = {}
        arr = cache.get(key)
        if arr is None:
            arr = cache[key] = builder()
        return arr

    def front_entries_all(self) -> np.ndarray:
        """``front_entries(i)`` for every node, as one int64 array."""
        return self._cached("front_entries", lambda: flops.front_entries(self.nfront, self.symmetric))

    def factor_entries_all(self) -> np.ndarray:
        """``factor_entries(i)`` for every node, as one int64 array."""
        return self._cached(
            "factor_entries", lambda: flops.factor_entries(self.npiv, self.nfront, self.symmetric)
        )

    def cb_entries_all(self) -> np.ndarray:
        """``cb_entries(i)`` for every node, as one int64 array."""
        return self._cached(
            "cb_entries", lambda: flops.cb_entries(self.npiv, self.nfront, self.symmetric)
        )

    def master_entries_all(self) -> np.ndarray:
        """``master_entries(i)`` for every node, as one int64 array."""
        return self._cached(
            "master_entries", lambda: flops.master_entries(self.npiv, self.nfront, self.symmetric)
        )

    def factor_flops_all(self) -> np.ndarray:
        """``factor_flops(i)`` for every node, as one float64 array."""
        return self._cached(
            "factor_flops",
            lambda: flops.partial_factorization_flops(self.npiv, self.nfront, self.symmetric),
        )

    def type2_master_flops_all(self) -> np.ndarray:
        """``type2_master_flops(i)`` for every node, as one float64 array."""
        return self._cached(
            "type2_master_flops",
            lambda: flops.type2_master_flops(self.npiv, self.nfront, self.symmetric),
        )

    def assembly_flops_all(self) -> np.ndarray:
        """``assembly_flops(i)`` for every node, as one float64 array.

        Vectorized per-node accumulation: every node's CB entries are added
        to its parent's total in one ``np.add.at`` scatter instead of a
        per-node Python loop over the children.
        """

        def build() -> np.ndarray:
            total = np.zeros(self.nnodes, dtype=np.int64)
            has_parent = self.parent >= 0
            np.add.at(total, self.parent[has_parent], self.cb_entries_all()[has_parent])
            return total.astype(np.float64)

        return self._cached("assembly_flops", build)

    def _subtree_sums(self, per_node: np.ndarray) -> np.ndarray:
        """Sum of ``per_node`` over every node's subtree.

        The accumulation runs level by level from the deepest nodes up (each
        node's parent sits exactly one level above it), so one ``np.add.at``
        per tree level replaces the per-root depth-first sums.  Flop counts
        are integral and the totals stay far below 2**53, so the
        accumulation order cannot change float results.
        """
        acc = per_node.copy()
        levels = self.levels()
        for lev in range(int(levels.max(initial=0)), 0, -1):
            at = np.nonzero(levels == lev)[0]
            np.add.at(acc, self.parent[at], acc[at])
        return acc

    def subtree_flops_all(self) -> np.ndarray:
        """``subtree_flops(root)`` for every node, as one float64 array."""
        return self._cached("subtree_flops", lambda: self._subtree_sums(self.factor_flops_all()))

    def subtree_factor_entries_all(self) -> np.ndarray:
        """``subtree_factor_entries(root)`` for every node (int64, exact)."""
        return self._cached(
            "subtree_factor_entries", lambda: self._subtree_sums(self.factor_entries_all())
        )

    # ------------------------------------------------------------------ #
    # per-node reads of the cached columns (models in repro.analysis.flops)
    # ------------------------------------------------------------------ #
    def front_entries(self, i: int) -> int:
        """Entries of the full frontal matrix of node ``i``."""
        return int(self.front_entries_all()[i])

    def factor_entries(self, i: int) -> int:
        """Entries of the factors produced by node ``i``."""
        return int(self.factor_entries_all()[i])

    def cb_entries(self, i: int) -> int:
        """Entries of the contribution block produced by node ``i``."""
        return int(self.cb_entries_all()[i])

    def factor_flops(self, i: int) -> float:
        """Flops of the partial factorization performed at node ``i``."""
        return float(self.factor_flops_all()[i])

    def assembly_flops(self, i: int) -> float:
        """Flops (entry additions) of assembling the children CBs into ``i``."""
        return float(self.assembly_flops_all()[i])

    def master_entries(self, i: int) -> int:
        """Entries of the master part of node ``i`` (:func:`repro.analysis.flops.master_entries`)."""
        return int(self.master_entries_all()[i])

    def type2_master_flops(self, i: int) -> float:
        return float(self.type2_master_flops_all()[i])

    def type2_slave_flops(self, i: int, nrows: int) -> float:
        return flops.type2_slave_flops(int(self.npiv[i]), int(self.nfront[i]), nrows, self.symmetric)

    def total_factor_entries(self) -> int:
        return int(self.factor_entries_all().sum())

    def total_flops(self) -> float:
        # per-node flop counts are integral floats well below 2**53, so the
        # vectorized sum is exact (no order-dependent rounding)
        return float(self.factor_flops_all().sum())

    def subtree_flops(self, root: int) -> float:
        return float(self.subtree_flops_all()[root])

    def subtree_factor_entries(self, root: int) -> int:
        return int(self.subtree_factor_entries_all()[root])

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check the structural invariants; raise ``ValueError`` on failure."""
        n = self.nnodes
        for j in range(n):
            p = int(self.parent[j])
            if p >= n:
                raise ValueError(f"node {j}: parent {p} out of range")
            if 0 <= p <= j:
                raise ValueError(f"node {j}: parent {p} does not follow it (tree not postordered)")
            if self.npiv[j] < 1:
                raise ValueError(f"node {j}: npiv must be >= 1")
            if self.nfront[j] < self.npiv[j]:
                raise ValueError(f"node {j}: nfront < npiv")
        if self.variables is not None:
            seen: set[int] = set()
            for j, vs in enumerate(self.variables):
                if len(vs) != int(self.npiv[j]):
                    raise ValueError(f"node {j}: variable list length != npiv")
                overlap = seen.intersection(vs)
                if overlap:
                    raise ValueError(f"node {j}: variables {sorted(overlap)[:5]} appear twice")
                seen.update(vs)
            if len(seen) != self.nvars:
                raise ValueError("variable lists do not cover all matrix columns")

    def stats(self) -> dict[str, float]:
        """Summary statistics (used by the Table 1 harness and examples)."""
        cb = self.cb_entries_all().astype(np.float64)
        return {
            "nodes": float(self.nnodes),
            "nvars": float(self.nvars),
            "depth": float(self.depth()),
            "leaves": float(len(self.leaves())),
            "max_front": float(self.nfront.max()) if self.nnodes else 0.0,
            "mean_front": float(self.nfront.mean()) if self.nnodes else 0.0,
            "max_npiv": float(self.npiv.max()) if self.nnodes else 0.0,
            "factor_entries": float(self.total_factor_entries()),
            "total_flops": float(self.total_flops()),
            "max_cb_entries": float(cb.max()) if self.nnodes else 0.0,
        }

    # ------------------------------------------------------------------ #
    # rendering (Figure 1 / Figure 2 style ascii output)
    # ------------------------------------------------------------------ #
    def render_ascii(self, *, annotate=None, max_nodes: int = 200) -> str:
        """Indented ascii rendering of the tree (roots first).

        ``annotate`` is an optional callable ``node_index -> str`` appended
        to each line; rendering stops after ``max_nodes`` nodes.
        """
        lines: list[str] = []
        count = 0
        for root in sorted(self.roots, reverse=True):
            stack: list[tuple[int, int]] = [(root, 0)]
            while stack and count < max_nodes:
                j, depth = stack.pop()
                extra = f"  {annotate(j)}" if annotate is not None else ""
                lines.append(
                    "  " * depth
                    + f"[{j}] npiv={int(self.npiv[j])} nfront={int(self.nfront[j])}"
                    + extra
                )
                count += 1
                for c in sorted(self._children[j]):
                    stack.append((c, depth + 1))
        if count >= max_nodes:
            lines.append(f"... ({self.nnodes - max_nodes} more nodes)")
        return "\n".join(lines)

    def copy(self) -> "AssemblyTree":
        return AssemblyTree(
            self.npiv.copy(),
            self.nfront.copy(),
            self.parent.copy(),
            symmetric=self.symmetric,
            nvars=self.nvars,
            variables=self.variables,
            name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AssemblyTree(nodes={self.nnodes}, nvars={self.nvars}, "
            f"{'SYM' if self.symmetric else 'UNS'}, max_front={int(self.nfront.max()) if self.nnodes else 0})"
        )


def build_assembly_tree(
    pattern: SparsePattern,
    ordering: np.ndarray | None = None,
    *,
    amalgamation_min_pivots: int = AMALGAMATION.min_pivots,
    amalgamation_relax: float = AMALGAMATION.relax,
    amalgamation_max_front: int | None = None,
    keep_variables: bool = True,
    name: str | None = None,
) -> AssemblyTree:
    """Full symbolic analysis: pattern + ordering → assembly tree.

    Pipeline (mirrors the analysis phase of a multifrontal solver):

    1. symmetrize the pattern and apply the fill-reducing ``ordering``
       (identity when ``None``);
    2. compute the elimination tree;
    3. postorder the tree and relabel the columns accordingly;
    4. compute the column counts of ``L``;
    5. detect fundamental supernodes;
    6. relaxed amalgamation;
    7. emit the :class:`AssemblyTree`.

    The ``ordering`` follows the :meth:`SparsePattern.permuted` convention:
    ``ordering[k]`` is the original variable eliminated at step ``k``.
    """
    # P (A + Aᵀ + I) Pᵀ is (PAPᵀ) + (PAPᵀ)ᵀ + I: symmetrize before permuting,
    # so the permuted pattern needs no second pass
    sym = pattern.symmetrized().with_diagonal()
    perm_total = np.arange(pattern.n, dtype=np.int64)
    if ordering is not None:
        perm_total = np.asarray(ordering, dtype=np.int64)
        sym = sym.permuted(perm_total)
    parent = _liu_etree(sym)
    post = postorder(parent)
    # relabel the columns in postorder; the resulting etree is monotone
    # (parent > child), which the supernode detection requires.  A postorder
    # is a topological relabelling of the etree, so the etree and the column
    # counts of the relabelled matrix are the relabelled ones: the matrix
    # itself is never permuted a second time
    perm_total = perm_total[post]
    ipost = np.empty_like(post)
    ipost[post] = np.arange(post.size, dtype=np.int64)
    parent_post = parent[post]
    has_parent = parent_post >= 0
    parent_post[has_parent] = ipost[parent_post[has_parent]]
    counts = _column_counts_vectorized(sym, parent, post)[post]

    first, sn_nfront, sn_parent, _ = _fundamental(parent_post, counts)
    columns = None
    if keep_variables:
        ends = first[1:].tolist() + [pattern.n]
        columns = [perm_total[a:b].tolist() for a, b in zip(first.tolist(), ends)]
    npiv, nfront, parent_sn, _ = _amalgamate(
        np.diff(np.append(first, pattern.n)).tolist(), sn_nfront.tolist(), sn_parent.tolist(), columns,
        amalgamation_min_pivots, amalgamation_relax, amalgamation_max_front, pattern.symmetric,
    )
    variables = None
    if columns is not None:
        variables = [cols for cols in columns if cols is not None]
    return AssemblyTree(
        npiv,
        nfront,
        parent_sn,
        symmetric=pattern.symmetric,
        nvars=pattern.n,
        variables=variables,
        name=name if name is not None else pattern.name,
    )
