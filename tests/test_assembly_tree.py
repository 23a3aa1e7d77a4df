"""Tests for the AssemblyTree data structure and its construction."""

import numpy as np
import pytest

from repro.analysis import flops
from repro.experiments.problems import get_problem
from repro.ordering import compute_ordering
from repro.sparse import SparsePattern, grid_2d, random_pattern
from repro.symbolic import AssemblyTree, build_assembly_tree
from repro.symbolic.colcounts import symbolic_fill
from test_flops import brute_force_flops, brute_force_master_flops


class TestAssemblyTreeStructure:
    def test_basic_counts(self, small_tree, small_grid):
        assert small_tree.nvars == small_grid.n
        assert small_tree.npiv.sum() == small_grid.n
        assert small_tree.nnodes == len(small_tree)

    def test_children_parent_consistency(self, small_tree):
        for j in range(small_tree.nnodes):
            for c in small_tree.children(j):
                assert small_tree.parent[c] == j

    def test_roots_and_leaves(self, small_tree):
        roots = small_tree.roots
        assert roots
        for r in roots:
            assert small_tree.parent[r] == -1
        for leaf in small_tree.leaves():
            assert small_tree.children(leaf) == []

    def test_node_view(self, small_tree):
        node = small_tree.node(0)
        assert node.index == 0
        assert node.cb_order == small_tree.cb_order(0)
        assert node.is_leaf == (len(small_tree.children(0)) == 0)

    def test_iteration(self, small_tree):
        nodes = list(small_tree)
        assert len(nodes) == small_tree.nnodes

    def test_subtree_nodes_root_covers_all(self, chain_tree):
        assert sorted(chain_tree.subtree_nodes(3)) == [0, 1, 2, 3]
        assert chain_tree.subtree_nodes(0) == [0]

    def test_depth_and_levels(self, chain_tree, forked_tree):
        assert chain_tree.depth() == 4
        assert forked_tree.depth() == 2
        assert list(forked_tree.levels()) == [1, 1, 0]

    def test_topological_orders(self, small_tree):
        topo = small_tree.topological_order()
        rev = small_tree.reverse_topological_order()
        assert np.array_equal(rev, topo[::-1])

    def test_validate_rejects_bad_trees(self):
        with pytest.raises(ValueError):
            AssemblyTree([1, 1], [2, 2], [1, 1])  # node 1 is its own ancestor
        with pytest.raises(ValueError):
            AssemblyTree([0], [2], [-1])  # npiv < 1
        with pytest.raises(ValueError):
            AssemblyTree([3], [2], [-1])  # nfront < npiv
        with pytest.raises(ValueError):
            AssemblyTree([1, 1], [2, 2], [-1])  # length mismatch is caught earlier

    def test_validate_rejects_variable_overlap(self):
        with pytest.raises(ValueError):
            AssemblyTree([1, 1], [2, 1], [1, -1], nvars=2, variables=[(0,), (0,)])

    def test_copy_is_independent(self, small_tree):
        other = small_tree.copy()
        other.npiv[0] += 0  # no-op, but arrays must not be shared
        assert other.npiv is not small_tree.npiv
        assert other.nnodes == small_tree.nnodes

    def test_render_ascii(self, forked_tree):
        text = forked_tree.render_ascii()
        assert "npiv=2" in text
        assert text.count("[") == 3

    def test_stats_keys(self, small_tree):
        stats = small_tree.stats()
        for key in ("nodes", "depth", "max_front", "factor_entries", "total_flops"):
            assert key in stats


class TestMemoryModels:
    def test_entry_accounting_symmetric(self, forked_tree):
        # node 0: npiv=2, nfront=4 -> factors 2*3/2 + 2*2 = 7, cb 2*3/2 = 3
        assert forked_tree.factor_entries(0) == 7
        assert forked_tree.cb_entries(0) == 3
        assert forked_tree.front_entries(0) == 10
        assert forked_tree.master_entries(0) == 3

    def test_entry_accounting_unsymmetric(self):
        tree = AssemblyTree([2], [5], [-1], symmetric=False, nvars=2)
        assert tree.front_entries(0) == 25
        assert tree.factor_entries(0) == 2 * 5 + 3 * 2
        assert tree.cb_entries(0) == 9
        assert tree.master_entries(0) == 10

    def test_master_plus_slaves_equals_factors(self, medium_tree):
        from repro.analysis.flops import type2_slave_factor_entries

        for i in range(medium_tree.nnodes):
            npiv = int(medium_tree.npiv[i])
            nfront = int(medium_tree.nfront[i])
            ncb = nfront - npiv
            slave_total = type2_slave_factor_entries(npiv, nfront, ncb, medium_tree.symmetric)
            assert medium_tree.master_entries(i) + slave_total == medium_tree.factor_entries(i)

    def test_totals_equal_symbolic_fill(self, small_grid):
        """Sum of per-front factor entries equals nnz(L) counted column-wise,
        and the sum of per-front flops the column-wise flop count.

        The symmetric multifrontal factors store the pivot triangle and the
        sub-diagonal block of every front, which together hold exactly the
        nonzeros of L (including the diagonal); without amalgamation zeros a
        front's eliminations are those of its columns.
        """
        perm = compute_ordering(small_grid, "amd")
        tree = build_assembly_tree(small_grid, perm, amalgamation_relax=0.0, amalgamation_min_pivots=1)
        fill = symbolic_fill(small_grid.permuted(perm))
        assert tree.total_factor_entries() == pytest.approx(fill["nnz_L"])
        assert tree.total_flops() == fill["flops"]

    def test_flops_positive_and_monotone(self, medium_tree):
        for i in range(medium_tree.nnodes):
            assert medium_tree.factor_flops(i) > 0
        # a bigger front with the same npiv costs more
        a = AssemblyTree([2], [10], [-1], symmetric=True, nvars=2).factor_flops(0)
        b = AssemblyTree([2], [20], [-1], symmetric=True, nvars=2).factor_flops(0)
        assert b > a

    def test_assembly_flops(self, forked_tree):
        assert forked_tree.assembly_flops(2) == forked_tree.cb_entries(0) + forked_tree.cb_entries(1)
        assert forked_tree.assembly_flops(0) == 0

    def test_subtree_aggregates(self, chain_tree):
        assert chain_tree.subtree_flops(3) == pytest.approx(chain_tree.total_flops())
        assert chain_tree.subtree_factor_entries(3) == chain_tree.total_factor_entries()


class TestBuildAssemblyTree:
    def test_variables_partition(self, small_grid):
        tree = build_assembly_tree(small_grid, compute_ordering(small_grid, "amd"))
        assert tree.variables is not None
        seen = sorted(v for vs in tree.variables for v in vs)
        assert seen == list(range(small_grid.n))

    def test_keep_variables_false(self, small_grid):
        tree = build_assembly_tree(small_grid, keep_variables=False)
        assert tree.variables is None

    def test_unsymmetric_flag_propagates(self, unsym_pattern):
        tree = build_assembly_tree(unsym_pattern, compute_ordering(unsym_pattern, "amd"))
        assert not tree.symmetric

    def test_amalgamation_reduces_node_count(self, small_grid):
        perm = compute_ordering(small_grid, "metis")
        fine = build_assembly_tree(small_grid, perm, amalgamation_relax=0.0, amalgamation_min_pivots=1)
        coarse = build_assembly_tree(small_grid, perm, amalgamation_relax=0.4, amalgamation_min_pivots=8)
        assert coarse.nnodes <= fine.nnodes
        # the relaxation ladder on a paper analogue: more relaxation never
        # gives more nodes, nor fewer stored factor entries
        pattern = get_problem("XENON2").build(0.3)
        perm = compute_ordering(pattern, "metis")
        ladder = [
            build_assembly_tree(pattern, perm, amalgamation_relax=relax, keep_variables=False)
            for relax in (0.0, 0.1, 0.25, 0.5)
        ]
        nodes = [tree.nnodes for tree in ladder]
        factors = [tree.total_factor_entries() for tree in ladder]
        assert nodes == sorted(nodes, reverse=True)
        assert factors == sorted(factors)

    def test_amalgamation_preserves_factor_lower_bound(self, small_grid):
        """Amalgamation can only add explicit zeros, never lose factor entries."""
        perm = compute_ordering(small_grid, "metis")
        fine = build_assembly_tree(small_grid, perm, amalgamation_relax=0.0, amalgamation_min_pivots=1)
        coarse = build_assembly_tree(small_grid, perm, amalgamation_relax=0.3, amalgamation_min_pivots=8)
        assert coarse.total_factor_entries() >= fine.total_factor_entries()

    def test_identity_vs_none_ordering(self, small_grid):
        a = build_assembly_tree(small_grid)
        b = build_assembly_tree(small_grid, np.arange(small_grid.n))
        assert a.nnodes == b.nnodes
        assert a.total_factor_entries() == b.total_factor_entries()

    def test_name_defaults_to_pattern_name(self, small_grid):
        tree = build_assembly_tree(small_grid)
        assert tree.name == small_grid.name


class TestVectorizedGeometry:
    """The cached geometry columns ≡ the scalar model of repro.analysis.flops,
    node by node, and the flop columns ≡ the brute-force elimination counts."""

    def _trees(self, small_grid, unsym_pattern):
        sym_tree = build_assembly_tree(small_grid, compute_ordering(small_grid, "metis"))
        uns_tree = build_assembly_tree(unsym_pattern, compute_ordering(unsym_pattern, "amd"))
        synthetic = AssemblyTree([2, 3, 4], [4, 5, 4], [2, 2, -1], symmetric=True, nvars=9)
        return [sym_tree, uns_tree, synthetic]

    def test_entry_columns_match_scalar_model(self, small_grid, unsym_pattern):
        for tree in self._trees(small_grid, unsym_pattern):
            sym = tree.symmetric
            for i in range(tree.nnodes):
                npiv, nfront = int(tree.npiv[i]), int(tree.nfront[i])
                assert tree.front_entries_all()[i] == flops.front_entries(nfront, sym)
                assert tree.factor_entries_all()[i] == flops.factor_entries(npiv, nfront, sym)
                assert tree.cb_entries_all()[i] == flops.cb_entries(npiv, nfront, sym)
                assert tree.master_entries_all()[i] == flops.master_entries(npiv, nfront, sym)
                assert tree.front_entries(i) == flops.front_entries(nfront, sym)
                assert tree.master_entries(i) == flops.master_entries(npiv, nfront, sym)

    def test_flop_columns_match_scalar_model_and_brute_force(self, small_grid, unsym_pattern):
        for tree in self._trees(small_grid, unsym_pattern):
            sym = tree.symmetric
            for i in range(tree.nnodes):
                npiv, nfront = int(tree.npiv[i]), int(tree.nfront[i])
                factor = tree.factor_flops_all()[i]
                assert factor == flops.partial_factorization_flops(npiv, nfront, sym)
                assert factor == brute_force_flops(npiv, nfront, sym)
                master = tree.type2_master_flops_all()[i]
                assert master == flops.type2_master_flops(npiv, nfront, sym)
                assert master == brute_force_master_flops(npiv, nfront, sym)
            assert list(tree.assembly_flops_all()) == [
                float(sum(tree.cb_entries(c) for c in tree.children(i))) for i in range(tree.nnodes)
            ]

    def test_subtree_accumulations_match_depth_first_sums(self, small_grid, unsym_pattern):
        for tree in self._trees(small_grid, unsym_pattern):
            for root in range(tree.nnodes):
                nodes = tree.subtree_nodes(root)
                assert tree.subtree_flops(root) == float(
                    sum(tree.factor_flops(i) for i in nodes)
                )
                assert tree.subtree_factor_entries(root) == int(
                    sum(tree.factor_entries(i) for i in nodes)
                )

    def test_child_lists_shared_not_copied(self, small_grid):
        tree = build_assembly_tree(small_grid)
        lists = tree.child_lists()
        assert lists is tree.child_lists()
        assert [list(lists[i]) for i in range(tree.nnodes)] == [
            tree.children(i) for i in range(tree.nnodes)
        ]
