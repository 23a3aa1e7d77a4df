"""Tests for Liu's child ordering and the sequential stack-peak model."""

import itertools

import numpy as np
import pytest

from repro.symbolic import AssemblyTree, order_children_for_memory, sequential_peak_of_tree
from repro.symbolic.liu_order import node_working_storage, subtree_peaks_given_order


def brute_force_best_peak(tree):
    """Minimum peak over every permutation of every node's children (small trees only)."""
    n = tree.nnodes

    def peak_of(node, orders):
        stacked = 0.0
        peak = 0.0
        for c in orders[node]:
            peak = max(peak, stacked + peak_of(c, orders))
            stacked += tree.cb_entries(c)
        return max(peak, tree.front_entries(node) + stacked)

    best = None
    children = [tree.children(j) for j in range(n)]
    all_orders = [list(itertools.permutations(children[j])) for j in range(n)]
    for combo in itertools.product(*all_orders):
        orders = [list(c) for c in combo]
        total = 0.0
        stacked = 0.0
        for r in tree.roots:
            total = max(total, stacked + peak_of(r, orders))
            stacked += tree.cb_entries(r)
        best = total if best is None else min(best, total)
    return best


@pytest.fixture()
def star_tree():
    """One root with three children of very different peaks and CBs."""
    #     children: (npiv, nfront): peaks/cbs chosen to make ordering matter
    npiv = [2, 1, 4, 3]
    nfront = [8, 10, 5, 12]
    parent = [3, 3, 3, -1]
    return AssemblyTree(npiv, nfront, parent, symmetric=True, nvars=10)


class TestSequentialPeak:
    def test_single_node(self):
        tree = AssemblyTree([3], [3], [-1], symmetric=True, nvars=3)
        peak, per = sequential_peak_of_tree(tree)
        assert peak == tree.front_entries(0)
        assert per[0] == peak

    def test_leaf_peak_is_front(self, star_tree):
        _, per = sequential_peak_of_tree(star_tree)
        for leaf in star_tree.leaves():
            assert per[leaf] == star_tree.front_entries(leaf)

    def test_peak_at_least_working_storage(self, medium_tree):
        peak, per = sequential_peak_of_tree(medium_tree)
        for j in range(medium_tree.nnodes):
            assert per[j] >= node_working_storage(medium_tree, j) - 1e-9
        assert peak >= per.max() - 1e-9

    def test_liu_order_never_worse_than_natural(self, medium_tree, star_tree, chain_tree):
        for tree in (medium_tree, star_tree, chain_tree):
            liu_peak, _ = sequential_peak_of_tree(tree, child_order="liu")
            nat_peak, _ = sequential_peak_of_tree(tree, child_order="natural")
            assert liu_peak <= nat_peak + 1e-9

    def test_liu_order_is_optimal_on_small_trees(self, star_tree, forked_tree, chain_tree):
        for tree in (star_tree, forked_tree, chain_tree):
            liu_peak, _ = sequential_peak_of_tree(tree, child_order="liu")
            assert liu_peak == pytest.approx(brute_force_best_peak(tree))

    def test_explicit_child_order_accepted(self, forked_tree):
        order = [[], [], [1, 0]]
        peak, _ = sequential_peak_of_tree(forked_tree, child_order=order)
        assert peak > 0

    def test_orders_contain_same_children(self, medium_tree):
        orders, _ = order_children_for_memory(medium_tree)
        for j in range(medium_tree.nnodes):
            assert sorted(orders[j]) == sorted(medium_tree.children(j))

    def test_subtree_peaks_given_natural_order(self, chain_tree):
        peaks = subtree_peaks_given_order(chain_tree, None)
        # chain: peak grows towards the root
        assert peaks[-1] >= peaks[0]

    def test_deterministic(self, medium_tree):
        a, peaks_a = order_children_for_memory(medium_tree)
        b, peaks_b = order_children_for_memory(medium_tree)
        assert a == b
        assert peaks_a.tobytes() == peaks_b.tobytes()

    def test_peaks_match_a_second_pass_over_the_order(self, medium_tree, star_tree, chain_tree):
        for tree in (medium_tree, star_tree, chain_tree):
            order, peaks = order_children_for_memory(tree)
            assert peaks.tobytes() == subtree_peaks_given_order(tree, order).tobytes()
