"""Precomputed per-node scheduling geometry shared by the simulator engines.

Everything the event loops need about the assembly tree and the static
mapping — task flops, activation memory, front/factor/CB entries, owners,
subtree membership, type-2 candidate lists and slave-block coefficients,
Liu's child ordering, subtree peaks, initial pool orders and initial
workloads — is a pure function of
``(tree, mapping, nprocs)``.  The seed engine rebuilt all of it inside every
:class:`~repro.runtime.simulator.FactorizationSimulator`; one
:class:`SimGeometry` instance now carries it as numpy arrays plus plain-list
mirrors (the scalar per-event reads), so repeated runs against the same
analysis — benchmark repeats, strategy ablations, the batched sweep path of
:mod:`repro.runtime.batch` — pay for the geometry once.

Every quantity is produced by the same integer/float expressions the scalar
tree methods use (vectorized elementwise, no reductions), so the values are
bit-identical to recomputing them per task.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.analysis.flops import type2_slave_row_flops
from repro.mapping.layers import NodeType
from repro.symbolic.liu_order import order_children_for_memory, subtree_peaks_given_order

__all__ = ["SimGeometry"]

_TYPE2 = int(NodeType.TYPE2)
_TYPE3 = int(NodeType.TYPE3)

#: tree → {(id(mapping), nprocs): SimGeometry}.  The geometry keeps a strong
#: reference to its mapping, so the ``id`` key cannot be recycled while the
#: entry is alive.  It keeps none to its tree, so an entry lives exactly as
#: long as its tree: the weak key dies with the session that built the tree.
_GEOMETRY_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class SimGeometry:
    """Immutable per-(tree, mapping, nprocs) arrays consumed by the engines."""

    __slots__ = (
        "mapping",
        "nprocs",
        "nnodes",
        # numpy arrays
        "subtree_peaks",
        "initial_load",
        # plain-list mirrors (fast scalar reads on the per-event hot path)
        "task_flops",
        "task_memory",
        "front_entries",
        "factor_entries",
        "cb_entries",
        "master_entries",
        "assembly_flops",
        "npiv",
        "nfront",
        "node_type",
        "owner",
        "subtree_of",
        "parent",
        "children",
        "nchildren",
        "tree_leaves",
        "type2_candidates",
        "type2_slave",
        "liu_order",
        "subtrees_of_proc",
        "pool_orders",
    )

    def __init__(self, tree, mapping, nprocs: int) -> None:
        if mapping.nprocs != nprocs:
            raise ValueError("mapping.nprocs does not match the requested nprocs")
        self.mapping = mapping
        self.nprocs = int(nprocs)
        self.nnodes = tree.nnodes

        node_type = np.asarray(mapping.node_type, dtype=np.int64)
        front = tree.front_entries_all().astype(np.float64)
        master = tree.master_entries_all().astype(np.float64)
        is_type2 = node_type == _TYPE2
        is_type3 = node_type == _TYPE3

        # flops of the node's pool task (master part for type 2) and entries
        # added to the owner's stack at activation
        task_flops = np.where(is_type2, tree.type2_master_flops_all(), tree.factor_flops_all())
        task_memory = np.where(is_type2, master, np.where(is_type3, front / nprocs, front))
        self.task_flops = task_flops.tolist()
        self.task_memory = task_memory.tolist()
        self.front_entries = front.tolist()
        self.factor_entries = tree.factor_entries_all().astype(np.float64).tolist()
        self.cb_entries = tree.cb_entries_all().astype(np.float64).tolist()
        self.master_entries = master.tolist()
        self.assembly_flops = tree.assembly_flops_all().tolist()
        self.npiv = tree.npiv.tolist()
        self.nfront = tree.nfront.tolist()
        self.node_type = node_type.tolist()
        self.owner = np.asarray(mapping.owner, dtype=np.int64).tolist()
        self.subtree_of = np.asarray(mapping.subtree_of, dtype=np.int64).tolist()
        self.parent = tree.parent.tolist()
        self.children = tree.child_lists() if hasattr(tree, "child_lists") else [
            tree.children(i) for i in range(tree.nnodes)
        ]
        self.nchildren = [len(c) for c in self.children]
        self.tree_leaves = tree.leaves()

        # candidate lists of every type-2 node are static (the master is the
        # node's owner): precompute them instead of rebuilding one list per
        # slave selection.  ``type2_slave[node]`` holds what the per-slave
        # loop needs: the candidate set that normalize_row_distribution
        # checks against, and the integer coefficients of
        # repro.analysis.flops for a slave of ``rows`` rows:
        #   flops  = float(rows * row_flops)
        #   block  = rows * block_a + (rows * block_b) // 2
        #   factor = rows * npiv
        self.type2_candidates: dict[int, list[int]] = {}
        self.type2_slave: dict[int, tuple[frozenset[int], int, int, int]] = {}
        symmetric = tree.symmetric
        for node in np.nonzero(is_type2)[0].tolist():
            owner = self.owner[node]
            cands = [q for q in mapping.candidates.get(node, []) if q != owner]
            if not cands:
                cands = [q for q in range(nprocs) if q != owner]
            self.type2_candidates[node] = cands
            npiv = self.npiv[node]
            nfront = self.nfront[node]
            block = (npiv, nfront - npiv + 1) if symmetric else (nfront, 0)
            self.type2_slave[node] = (
                frozenset(cands), type2_slave_row_flops(npiv, nfront, symmetric), *block
            )

        # Liu's child ordering is deterministic in the tree alone: computed
        # once and shared by the subtree peaks and every pool initialisation
        self.liu_order = order_children_for_memory(tree)
        self.subtree_peaks = subtree_peaks_given_order(tree, self.liu_order)

        # initial workloads (cost of the statically assigned subtrees) and
        # the per-processor pool initialisation of Section 5.2
        initial_load = np.zeros(nprocs, dtype=np.float64)
        subtrees_of_proc: list[list[int]] = [[] for _ in range(nprocs)]
        for r in mapping.subtree_roots:
            owner = self.owner[r]
            initial_load[owner] += tree.subtree_flops(r)
            subtrees_of_proc[owner].append(r)
        self.initial_load = initial_load
        self.subtrees_of_proc = subtrees_of_proc
        self.pool_orders = [
            self.initial_pool_order(p, subtrees_of_proc[p]) for p in range(nprocs)
        ]

    # ------------------------------------------------------------------ #
    @classmethod
    def for_run(cls, tree, mapping, nprocs: int) -> "SimGeometry":
        """The geometry of ``(tree, mapping, nprocs)``, memoized per tree.

        Benchmark repeats, strategy ablations over one analysis and the
        batched sweep path all hit the cache; a fresh tree (or mapping)
        builds a fresh instance.
        """
        per_tree = _GEOMETRY_CACHE.get(tree)
        if per_tree is None:
            per_tree = _GEOMETRY_CACHE[tree] = {}
        key = (id(mapping), int(nprocs))
        geom = per_tree.get(key)
        if geom is None or geom.mapping is not mapping:
            geom = cls(tree, mapping, nprocs)
            per_tree[key] = geom
        return geom

    def initial_pool_order(self, proc: int, my_subtrees: list[int] | None = None) -> list[int]:
        """Leaf nodes assigned to ``proc`` in the order they should be processed.

        Leaves are grouped per subtree and, inside each subtree, listed in the
        order a depth-first traversal with Liu's child ordering would reach
        them — the pool initialisation described in Section 5.2.
        """
        if my_subtrees is None:
            my_subtrees = [r for r in self.mapping.subtree_roots if self.owner[r] == proc]
        liu = self.liu_order
        order: list[int] = []
        for r in sorted(my_subtrees):
            stack = [(r, 0)]
            # DFS following Liu order; collect the leaves in visit order
            visit: list[int] = []
            while stack:
                node, idx = stack.pop()
                children = liu[node]
                if not children:
                    visit.append(node)
                    continue
                if idx < len(children):
                    stack.append((node, idx + 1))
                    stack.append((children[idx], 0))
            order.extend(visit)
        # upper-layer leaves owned by this processor (rare but possible)
        for i in self.tree_leaves:
            if (
                self.subtree_of[i] < 0
                and self.owner[i] == proc
                and self.node_type[i] != _TYPE3
            ):
                order.append(i)
        return order
