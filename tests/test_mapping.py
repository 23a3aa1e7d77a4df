"""Tests for the static mapping (Geist-Ng layer, subtree map, node types)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping import NodeType, compute_mapping, geist_ng_layer, map_subtrees_to_processors
from repro.mapping.geist_ng import _lpt_imbalance
from repro.symbolic import AssemblyTree


def argmin_lpt_imbalance(costs, nprocs):
    """LPT packing with one ``np.argmin`` per cost: the oracle of :func:`_lpt_imbalance`."""
    if not costs:
        return 1.0
    bins = np.zeros(nprocs, dtype=np.float64)
    for c in sorted(costs, reverse=True):
        bins[int(np.argmin(bins))] += c
    total = float(bins.sum())
    if total <= 0:
        return 1.0
    avg = total / nprocs
    return float(bins.max()) / max(avg, 1e-300)


@settings(max_examples=200, deadline=None)
@given(
    costs=st.lists(
        st.one_of(
            st.sampled_from([0.0, 1.0, 2.0, 3.0, 1e-3, 0.1]),  # ties between bins
            st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
        ),
        max_size=60,
    ),
    nprocs=st.integers(min_value=1, max_value=40),
)
def test_property_lpt_imbalance_matches_argmin_loop(costs, nprocs):
    assert _lpt_imbalance(costs, nprocs) == argmin_lpt_imbalance(costs, nprocs)


class TestGeistNgLayer:
    def test_single_processor_keeps_roots(self, medium_tree):
        assert geist_ng_layer(medium_tree, 1) == sorted(medium_tree.roots)

    def test_layer_roots_are_disjoint_subtrees(self, medium_tree):
        layer = geist_ng_layer(medium_tree, 4)
        seen = set()
        for r in layer:
            nodes = set(medium_tree.subtree_nodes(r))
            assert not (nodes & seen)
            seen |= nodes

    def test_enough_subtrees_for_processors(self, medium_tree):
        layer = geist_ng_layer(medium_tree, 4)
        assert len(layer) >= min(4, len(medium_tree.leaves()))

    def test_more_processors_push_layer_down(self, medium_tree):
        small = geist_ng_layer(medium_tree, 2)
        large = geist_ng_layer(medium_tree, 8)
        assert len(large) >= len(small)

    def test_all_leaves_when_tolerance_tight(self, chain_tree):
        # a chain can only be cut at the leaf
        layer = geist_ng_layer(chain_tree, 4)
        assert layer == [0]

    def test_invalid_nprocs(self, medium_tree):
        with pytest.raises(ValueError):
            geist_ng_layer(medium_tree, 0)


class TestSubtreeMapping:
    def test_all_subtrees_assigned(self, medium_tree):
        layer = geist_ng_layer(medium_tree, 4)
        assignment = map_subtrees_to_processors(medium_tree, layer, 4)
        assert set(assignment) == set(layer)
        assert all(0 <= p < 4 for p in assignment.values())

    def test_balances_flops(self, medium_tree):
        layer = geist_ng_layer(medium_tree, 4)
        assignment = map_subtrees_to_processors(medium_tree, layer, 4)
        loads = np.zeros(4)
        for r, p in assignment.items():
            loads[p] += medium_tree.subtree_flops(r)
        # LPT guarantee: max <= 4/3 * optimal <= 4/3 * (total/nproc) + largest item
        largest = max(medium_tree.subtree_flops(r) for r in layer)
        assert loads.max() <= loads.sum() / 4 + largest + 1e-9

    def test_memory_cost_option(self, medium_tree):
        layer = geist_ng_layer(medium_tree, 4)
        assignment = map_subtrees_to_processors(medium_tree, layer, 4, cost="memory")
        assert set(assignment) == set(layer)

    def test_invalid_args(self, medium_tree):
        with pytest.raises(ValueError):
            map_subtrees_to_processors(medium_tree, [], 0)
        with pytest.raises(ValueError):
            map_subtrees_to_processors(medium_tree, [], 2, cost="entropy")


class TestComputeMapping:
    def test_every_node_classified(self, medium_tree, medium_mapping):
        assert len(medium_mapping.node_type) == medium_tree.nnodes
        for t in medium_mapping.node_type:
            assert int(t) in (0, 1, 2, 3)

    def test_subtree_nodes_have_owners(self, medium_tree, medium_mapping):
        for i in range(medium_tree.nnodes):
            if medium_mapping.node_type[i] == int(NodeType.SUBTREE):
                assert 0 <= medium_mapping.owner[i] < 4
                assert medium_mapping.subtree_of[i] >= 0

    def test_upper_nodes_have_owners_except_root(self, medium_tree, medium_mapping):
        for i in range(medium_tree.nnodes):
            kind = int(medium_mapping.node_type[i])
            if kind in (int(NodeType.TYPE1), int(NodeType.TYPE2)):
                assert 0 <= medium_mapping.owner[i] < 4
            if kind == int(NodeType.TYPE3):
                assert medium_mapping.owner[i] == -1

    def test_type2_nodes_respect_thresholds(self, medium_tree, medium_mapping):
        for i in medium_mapping.nodes_of_type(NodeType.TYPE2):
            assert medium_tree.nfront[i] >= 40
            assert medium_tree.cb_order(i) >= 8

    def test_at_most_one_type3(self, medium_mapping):
        assert len(medium_mapping.nodes_of_type(NodeType.TYPE3)) <= 1

    def test_subtree_consistency(self, medium_tree, medium_mapping):
        """Every node of a leaf subtree is owned by the subtree's processor."""
        for r in medium_mapping.subtree_roots:
            owner = medium_mapping.owner[r]
            for j in medium_tree.subtree_nodes(r):
                assert medium_mapping.owner[j] == owner
                assert medium_mapping.subtree_of[j] == r

    def test_single_processor_everything_subtree(self, medium_tree):
        mapping = compute_mapping(medium_tree, 1)
        assert mapping.nodes_of_type(NodeType.TYPE2) == []
        assert mapping.nodes_of_type(NodeType.TYPE3) == []
        assert all(o == 0 for o in mapping.owner)

    def test_candidate_lists_exclude_nobody(self, medium_mapping):
        for node, candidates in medium_mapping.candidates.items():
            assert sorted(candidates) == list(range(4))

    def test_initial_load_positive(self, medium_tree, medium_mapping):
        loads = [medium_mapping.initial_load(medium_tree, p) for p in range(4)]
        assert all(l >= 0 for l in loads)
        assert sum(loads) > 0

    def test_master_memory_balance(self, medium_tree):
        """The static master assignment roughly balances factor memory."""
        mapping = compute_mapping(medium_tree, 4, type2_front_threshold=40, type2_cb_threshold=8)
        bins = np.zeros(4)
        for i in range(medium_tree.nnodes):
            p = int(mapping.owner[i])
            if p >= 0:
                bins[p] += medium_tree.factor_entries(i)
        assert bins.max() <= 3.0 * max(bins.mean(), 1.0)

    def test_summary_keys(self, medium_tree, medium_mapping):
        summary = medium_mapping.summary(medium_tree)
        assert summary["nprocs"] == 4
        assert abs(sum(v for k, v in summary.items() if k.startswith("flops_share")) - 1.0) < 1e-6

    def test_statically_assigned_nodes(self, medium_tree, medium_mapping):
        all_assigned = set()
        for p in range(4):
            nodes = medium_mapping.statically_assigned_nodes(p)
            assert not (set(nodes) & all_assigned)
            all_assigned |= set(nodes)
        type3 = set(medium_mapping.nodes_of_type(NodeType.TYPE3))
        assert all_assigned | type3 == set(range(medium_tree.nnodes))

    def test_invalid_nprocs(self, medium_tree):
        with pytest.raises(ValueError):
            compute_mapping(medium_tree, 0)
