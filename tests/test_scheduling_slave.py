"""Unit tests for the slave-selection strategies (Algorithm 1, baseline, hybrid)."""

import numpy as np
import pytest

from repro.scheduling import (
    HybridSlaveSelector,
    MemorySlaveSelector,
    SlaveSelectionContext,
    WorkloadSlaveSelector,
    normalize_row_distribution,
)


def make_ctx(
    memory,
    *,
    load=None,
    effective=None,
    npiv=10,
    nfront=110,
    master=0,
    own_load=1e9,
    min_rows=1,
    max_slaves=None,
    candidates=None,
):
    memory = np.asarray(memory, dtype=np.float64)
    nprocs = memory.size
    if load is None:
        load = np.zeros(nprocs)
    if effective is None:
        effective = memory
    if candidates is None:
        candidates = [q for q in range(nprocs) if q != master]
    return SlaveSelectionContext(
        master_proc=master,
        node=0,
        npiv=npiv,
        nfront=nfront,
        ncb=nfront - npiv,
        symmetric=False,
        candidates=candidates,
        memory_view=memory,
        effective_memory_view=np.asarray(effective, dtype=np.float64),
        load_view=np.asarray(load, dtype=np.float64),
        own_load=own_load,
        own_memory=float(memory[master]),
        min_rows_per_slave=min_rows,
        max_slaves=max_slaves if max_slaves is not None else nprocs - 1,
    )


def total_rows(selection):
    return sum(r for _, r in selection)


class TestNormalizeRowDistribution:
    def test_total_preserved(self):
        out = normalize_row_distribution([(1, 5), (2, 3)], 10, [1, 2, 3])
        assert total_rows(out) == 10

    def test_drops_invalid_entries(self):
        out = normalize_row_distribution([(9, 5), (1, -2), (2, 4)], 4, [1, 2])
        assert all(q in (1, 2) for q, _ in out)
        assert total_rows(out) == 4

    def test_clips_excess(self):
        out = normalize_row_distribution([(1, 100)], 10, [1])
        assert out == [(1, 10)]

    def test_empty_assignment_falls_back_to_first_candidate(self):
        out = normalize_row_distribution([], 7, [3, 4])
        assert out == [(3, 7)]

    def test_zero_rows(self):
        assert normalize_row_distribution([(1, 3)], 0, [1]) == []


class TestMemorySlaveSelector:
    def test_covers_all_rows(self):
        ctx = make_ctx([0, 1000, 2000, 3000])
        sel = MemorySlaveSelector(use_predictions=False).select(ctx)
        assert total_rows(sel) == ctx.ncb
        assert all(q != 0 for q, _ in sel)

    def test_prefers_least_loaded_memory(self):
        ctx = make_ctx([0, 50_000, 100, 60_000])
        sel = dict(MemorySlaveSelector(use_predictions=False).select(ctx))
        # processor 2 has by far the least memory: it must receive the most rows
        assert sel.get(2, 0) == max(sel.values())

    def test_levelling_behaviour(self):
        # two candidates with a gap of exactly 20 rows worth of entries
        nfront = 100
        ctx = make_ctx([0, 1000, 1000 + 20 * nfront], npiv=40, nfront=nfront)
        sel = dict(MemorySlaveSelector(use_predictions=False).select(ctx))
        # slave 1 must receive at least the 20-row deficit more than slave 2
        assert sel.get(1, 0) >= sel.get(2, 0) + 10

    def test_does_not_raise_peak_when_possible(self):
        """The chosen set must be the smallest prefix that absorbs the surface."""
        # candidate memories: one is enormous; the surface fits easily in the
        # first two, so the enormous one must not be selected
        ctx = make_ctx([0, 100, 200, 10**9])
        sel = MemorySlaveSelector(use_predictions=False).select(ctx)
        assert all(q != 3 for q, _ in sel)

    def test_respects_max_slaves(self):
        ctx = make_ctx([0, 10, 20, 30, 40], max_slaves=2)
        sel = MemorySlaveSelector(use_predictions=False).select(ctx)
        assert len(sel) <= 2
        assert total_rows(sel) == ctx.ncb

    def test_respects_min_rows_granularity(self):
        ctx = make_ctx([0, 10, 20, 30, 40], min_rows=50)
        sel = MemorySlaveSelector(use_predictions=False).select(ctx)
        # ncb=100, min 50 rows per slave -> at most 2 slaves
        assert len(sel) <= 2

    def test_prediction_metric_changes_choice(self):
        mem = np.array([0.0, 10.0, 5000.0])
        effective = np.array([0.0, 10.0 + 10**7, 5000.0])
        ctx_plain = make_ctx(mem, effective=mem, master=0)
        ctx_pred = make_ctx(mem, effective=effective, master=0)
        plain = dict(MemorySlaveSelector(use_predictions=True).select(ctx_plain))
        pred = dict(MemorySlaveSelector(use_predictions=True).select(ctx_pred))
        # with the prediction, processor 1 (about to start a huge master) gets
        # fewer rows than without it
        assert pred.get(1, 0) < plain.get(1, 0)

    def test_use_predictions_false_ignores_effective_view(self):
        mem = np.array([0.0, 10.0, 5000.0])
        effective = np.array([0.0, 10**9, 5000.0])
        ctx = make_ctx(mem, effective=effective)
        a = MemorySlaveSelector(use_predictions=False).select(ctx)
        b = MemorySlaveSelector(use_predictions=False).select(make_ctx(mem, effective=mem))
        assert a == b

    def test_empty_cases(self):
        ctx = make_ctx([0, 1, 2], nfront=10, npiv=10)  # ncb = 0
        assert MemorySlaveSelector().select(ctx) == []
        ctx2 = make_ctx([0, 1, 2], candidates=[])
        assert MemorySlaveSelector().select(ctx2) == []

    def test_deterministic(self):
        ctx = make_ctx([0, 5, 5, 5])
        a = MemorySlaveSelector(use_predictions=False).select(ctx)
        b = MemorySlaveSelector(use_predictions=False).select(ctx)
        assert a == b


class TestWorkloadSlaveSelector:
    def test_covers_all_rows(self):
        ctx = make_ctx([0, 0, 0, 0], load=[100, 10, 20, 30], own_load=100)
        sel = WorkloadSlaveSelector().select(ctx)
        assert total_rows(sel) == ctx.ncb

    def test_prefers_less_loaded(self):
        ctx = make_ctx([0, 0, 0, 0], load=[100, 1000, 5, 2000], own_load=100)
        sel = dict(WorkloadSlaveSelector().select(ctx))
        assert sel.get(2, 0) > 0
        # processor 3 is more loaded than the master: only selected if needed
        assert sel.get(2, 0) >= sel.get(3, 0)

    def test_all_more_loaded_still_selects(self):
        ctx = make_ctx([0, 0, 0], load=[1, 100, 200], own_load=1)
        sel = WorkloadSlaveSelector().select(ctx)
        assert total_rows(sel) == ctx.ncb

    def test_equal_split_mode(self):
        ctx = make_ctx([0, 0, 0, 0, 0], load=[10, 1, 2, 3, 4], own_load=10)
        sel = WorkloadSlaveSelector(proportional=False).select(ctx)
        rows = [r for _, r in sel]
        assert max(rows) - min(rows) <= 1

    def test_granularity(self):
        ctx = make_ctx([0] * 5, load=[10, 1, 2, 3, 4], own_load=10, min_rows=60)
        sel = WorkloadSlaveSelector().select(ctx)
        # ncb=100 -> at most one slave with min 60 rows
        assert len(sel) == 1

    def test_memory_blind(self):
        """The baseline ignores memory entirely — the paper's starting point."""
        low = make_ctx([0, 10, 10], load=[5, 1, 2], own_load=5)
        high = make_ctx([0, 10**9, 10], load=[5, 1, 2], own_load=5)
        assert WorkloadSlaveSelector().select(low) == WorkloadSlaveSelector().select(high)


class TestHybridSlaveSelector:
    def test_covers_all_rows(self):
        ctx = make_ctx([0, 100, 200, 300], load=[10, 5, 2, 100], own_load=10)
        sel = HybridSlaveSelector(alpha=0.5).select(ctx)
        assert total_rows(sel) == ctx.ncb

    def test_alpha_one_ranks_like_memory(self):
        ctx = make_ctx([0, 10_000, 10, 20_000], load=[1, 1, 1, 1], own_load=1)
        hybrid = dict(HybridSlaveSelector(alpha=1.0).select(ctx))
        assert hybrid.get(2, 0) == max(hybrid.values())

    def test_alpha_zero_ranks_like_workload(self):
        ctx = make_ctx([0, 0, 0, 0], load=[10, 100, 1, 50], own_load=10)
        hybrid = dict(HybridSlaveSelector(alpha=0.0).select(ctx))
        assert hybrid.get(2, 0) == max(hybrid.values())

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            HybridSlaveSelector(alpha=1.5)

    def test_empty(self):
        ctx = make_ctx([0, 1], nfront=5, npiv=5)
        assert HybridSlaveSelector().select(ctx) == []


SELECTORS = [
    MemorySlaveSelector(use_predictions=False),
    MemorySlaveSelector(use_predictions=True),
    WorkloadSlaveSelector(),
    WorkloadSlaveSelector(proportional=False),
    HybridSlaveSelector(alpha=0.3),
]
SELECTOR_IDS = ["memory-plain", "memory-predicted", "workload", "workload-equal", "hybrid"]


class TestContainerTypes:
    """The selectors read candidates and views as plain sequences: a list, a
    numpy array or an ``array("d")`` row must give the same assignment."""

    @pytest.mark.parametrize("selector", SELECTORS, ids=SELECTOR_IDS)
    def test_list_and_ndarray_candidates_agree(self, selector):
        # the 4-processor context that used to make the hybrid selector raise
        # "truth value of an array is ambiguous"
        memory = [0.0, 900.0, 100.0, 400.0]
        load = [50.0, 10.0, 30.0, 20.0]
        on_list = make_ctx(memory, load=load, own_load=40.0, candidates=[1, 2, 3])
        on_array = make_ctx(memory, load=load, own_load=40.0, candidates=np.array([1, 2, 3]))
        expected = selector.select(on_list)
        assert total_rows(expected) == on_list.ncb
        got = selector.select(on_array)
        assert got == expected
        assert all(type(q) is int and type(r) is int for q, r in got)

    @pytest.mark.parametrize("selector", SELECTORS, ids=SELECTOR_IDS)
    def test_view_containers_agree(self, selector):
        from array import array

        rng = np.random.default_rng(5)
        memory = rng.uniform(0.0, 5e4, size=12)
        effective = memory + rng.uniform(0.0, 1e4, size=12)
        load = rng.uniform(0.0, 1e9, size=12)
        results = []
        for convert in (np.asarray, list, lambda v: array("d", v)):
            ctx = make_ctx(memory, effective=effective, load=load, own_load=5e8, master=3)
            ctx.memory_view = convert(memory)
            ctx.effective_memory_view = convert(effective)
            ctx.load_view = convert(load)
            results.append(selector.select(ctx))
        assert results[0] == results[1] == results[2]

    def test_empty_ndarray_candidates(self):
        ctx = make_ctx([0.0, 1.0, 2.0], candidates=np.array([], dtype=np.int64))
        for selector in SELECTORS:
            assert selector.select(ctx) == []
