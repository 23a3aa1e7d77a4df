"""Tests for the discrete-event simulator of the parallel factorization."""

import numpy as np
import pytest

from repro.mapping import compute_mapping
from repro.ordering import compute_ordering
from repro.runtime import FactorizationSimulator, SimulationConfig
from repro.scheduling import STRATEGIES, get_strategy
from repro.analysis import sequential_stack_peak
from repro.symbolic import build_assembly_tree


def run_sim(tree, nprocs=4, strategy="mumps-workload", mapping=None, **cfg_kwargs):
    defaults = dict(
        nprocs=nprocs,
        type2_front_threshold=40,
        type2_cb_threshold=8,
        type3_front_threshold=80,
    )
    defaults.update(cfg_kwargs)
    config = SimulationConfig(**defaults)
    slave, task = get_strategy(strategy).build()
    sim = FactorizationSimulator(
        tree,
        config=config,
        mapping=mapping,
        slave_selector=slave,
        task_selector=task,
        strategy_name=strategy,
    )
    return sim.run()


class TestBasicCorrectness:
    def test_all_strategies_complete(self, medium_tree):
        for strategy in ("mumps-workload", "memory-basic", "memory-slave", "memory-task", "memory-full", "hybrid"):
            result = run_sim(medium_tree, strategy=strategy)
            assert result.nodes == medium_tree.nnodes
            assert result.total_time > 0

    def test_factor_entries_conserved(self, medium_tree):
        """Whatever the strategy, the factors produced must equal the tree's factors."""
        for strategy in ("mumps-workload", "memory-full"):
            result = run_sim(medium_tree, strategy=strategy)
            assert result.total_factor_entries == pytest.approx(medium_tree.total_factor_entries())

    def test_factor_entries_conserved_unsym(self, unsym_tree):
        result = run_sim(unsym_tree, strategy="memory-full")
        assert result.total_factor_entries == pytest.approx(unsym_tree.total_factor_entries())

    def test_peaks_positive_and_bounded(self, medium_tree):
        result = run_sim(medium_tree)
        assert result.max_peak_stack > 0
        assert result.per_proc_peak_stack.shape == (4,)
        # no processor can ever exceed the whole problem's working set
        upper = sum(medium_tree.front_entries(i) for i in range(medium_tree.nnodes))
        assert result.max_peak_stack <= upper

    def test_single_processor_close_to_sequential(self, medium_tree, unsym_tree):
        """On one processor the simulation is the sequential traversal.

        The whole tree is one subtree on processor 0, whose pool starts with
        the leaves in Liu's depth-first order; whatever the strategy, the
        peak is exactly the sequential stack peak under Liu's child order
        (7990 entries on ``medium_tree``, where the natural order needs 8515).
        """
        for tree in (medium_tree, unsym_tree):
            liu_peak = sequential_stack_peak(tree, child_order="liu")
            for strategy in STRATEGIES:
                result = run_sim(tree, nprocs=1, strategy=strategy)
                assert result.per_proc_peak_stack[0] == liu_peak, strategy
                assert result.total_factor_entries == pytest.approx(tree.total_factor_entries())

    def test_deterministic(self, medium_tree):
        a = run_sim(medium_tree, strategy="memory-full")
        b = run_sim(medium_tree, strategy="memory-full")
        assert np.array_equal(a.per_proc_peak_stack, b.per_proc_peak_stack)
        assert a.total_time == b.total_time
        assert a.message_counts == b.message_counts

    def test_cannot_run_twice(self, medium_tree):
        config = SimulationConfig(nprocs=2, type2_front_threshold=40, type2_cb_threshold=8)
        slave, task = get_strategy("mumps-workload").build()
        sim = FactorizationSimulator(medium_tree, config=config, slave_selector=slave, task_selector=task)
        sim.run()
        with pytest.raises(RuntimeError):
            sim.run()

    def test_mapping_nprocs_mismatch(self, medium_tree, medium_mapping):
        config = SimulationConfig(nprocs=8)
        slave, task = get_strategy("mumps-workload").build()
        with pytest.raises(ValueError):
            FactorizationSimulator(
                medium_tree, config=config, mapping=medium_mapping, slave_selector=slave, task_selector=task
            )

    def test_single_node_tree(self):
        from repro.symbolic import AssemblyTree

        tree = AssemblyTree([5], [5], [-1], symmetric=True, nvars=5)
        result = run_sim(tree, nprocs=2)
        assert result.total_factor_entries == pytest.approx(tree.total_factor_entries())

    def test_handcrafted_chain(self, chain_tree):
        result = run_sim(chain_tree, nprocs=2)
        assert result.total_factor_entries == pytest.approx(chain_tree.total_factor_entries())


class TestBehaviours:
    def test_messages_emitted(self, medium_tree):
        result = run_sim(medium_tree)
        assert result.message_counts.get("memory", 0) > 0
        assert result.message_counts.get("load", 0) > 0

    def test_slave_selections_happen(self, medium_tree, medium_mapping):
        from repro.mapping import NodeType

        result = run_sim(medium_tree, mapping=medium_mapping)
        ntype2 = len(medium_mapping.nodes_of_type(NodeType.TYPE2))
        assert result.slave_selections == ntype2

    def test_traces_recorded_when_requested(self, medium_tree):
        result = run_sim(medium_tree, track_traces=True)
        assert result.trace is not None
        assert result.trace.nprocs == 4
        assert result.trace.peak_stack(int(np.argmax(result.per_proc_peak_stack))) == pytest.approx(
            result.max_peak_stack
        )
        grid, samples = result.trace.sampled(0, nsamples=50)
        assert grid.shape == (50,) and samples.shape == (50,)
        assert isinstance(result.trace.ascii_sparkline(0), str)

    def test_no_traces_by_default(self, medium_tree):
        assert run_sim(medium_tree).trace is None

    def test_zero_latency_runs(self, medium_tree):
        result = run_sim(medium_tree, latency=0.0, memory_message_latency=0.0)
        assert result.total_factor_entries == pytest.approx(medium_tree.total_factor_entries())

    def test_more_processors_do_not_slow_down(self, medium_tree):
        t2 = run_sim(medium_tree, nprocs=2).total_time
        t8 = run_sim(medium_tree, nprocs=8).total_time
        # parallel efficiency may be poor, but more processors should not make
        # the simulated factorization dramatically slower
        assert t8 <= 2.0 * t2

    def test_memory_strategy_not_worse_than_baseline_by_much(self, medium_tree):
        """The memory-based strategy should never blow the peak up dramatically."""
        base = run_sim(medium_tree, strategy="mumps-workload").max_peak_stack
        mem = run_sim(medium_tree, strategy="memory-full").max_peak_stack
        assert mem <= 1.5 * base

    def test_summary_fields(self, medium_tree):
        result = run_sim(medium_tree)
        summary = result.summary()
        for key in ("max_peak_stack", "avg_peak_stack", "total_time", "messages"):
            assert key in summary
        assert result.peak_imbalance >= 1.0

    def test_per_proc_tasks_cover_tree(self, medium_tree):
        result = run_sim(medium_tree)
        # every node triggers at least one task completion; type-2/root nodes more
        assert result.per_proc_tasks.sum() >= medium_tree.nnodes


class TestSplitInteraction:
    def test_split_tree_simulates_and_conserves(self, unsym_tree):
        from repro.symbolic import split_large_masters

        threshold = max(int(max(unsym_tree.master_entries(i) for i in range(unsym_tree.nnodes)) // 2), 10)
        split_tree, report = split_large_masters(unsym_tree, threshold)
        result = run_sim(split_tree, strategy="memory-full")
        assert result.total_factor_entries == pytest.approx(unsym_tree.total_factor_entries())

    def test_split_reduces_largest_activation(self, unsym_tree):
        from repro.symbolic import split_large_masters

        biggest = max(unsym_tree.master_entries(i) for i in range(unsym_tree.nnodes))
        split_tree, _ = split_large_masters(unsym_tree, max(biggest // 3, 10))
        new_biggest = max(split_tree.master_entries(i) for i in range(split_tree.nnodes))
        assert new_biggest <= biggest
