"""The matrix-backed view bank must be an exact drop-in for per-view loops.

:class:`ScalarBank` below keeps the historical implementation — independent
per-processor :class:`SystemView` arrays updated one method call at a time —
as an oracle.  These tests check the batched column updates of
:class:`ViewBank` against it, and pin whole ``soa`` simulations on a
realistic tree to the ``reference`` engine, bit for bit (the paper's tables
are reproduced from these numbers; "close" is not good enough)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mapping import compute_mapping
from repro.ordering import compute_ordering
from repro.runtime import FactorizationSimulator, SimulationConfig, SystemView, ViewBank
from repro.scheduling import get_strategy
from repro.sparse import grid_3d
from repro.symbolic import build_assembly_tree


class ScalarBank:
    """Oracle of ViewBank: independent per-view arrays, scalar setter loops."""

    _SETTERS = {
        "memory": SystemView.set_memory,
        "load": SystemView.set_load,
        "subtree": SystemView.set_subtree_peak,
        "prediction": SystemView.set_predicted_master,
    }

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        self._views = [SystemView(nprocs=nprocs, owner=p) for p in range(nprocs)]

    def view(self, proc: int) -> SystemView:
        return self._views[proc]

    def apply_broadcast(self, kind: str, source: int, value: float) -> None:
        setter = self._SETTERS[kind]
        for view in self._views:
            if view.owner != source:
                setter(view, source, value)

    def apply_reservations(self, source: int, reservations) -> None:
        for view in self._views:
            if view.owner != source:
                for (q, block) in reservations:
                    if q != view.owner:
                        view.add_memory(q, block)


def _banks(nprocs: int) -> tuple[ViewBank, ScalarBank]:
    return ViewBank(nprocs), ScalarBank(nprocs)


def _assert_banks_equal(vec: ViewBank, ref: ScalarBank) -> None:
    for p in range(vec.nprocs):
        a, b = vec.view(p), ref.view(p)
        np.testing.assert_array_equal(a.memory, b.memory)
        np.testing.assert_array_equal(a.load, b.load)
        np.testing.assert_array_equal(a.subtree_peak, b.subtree_peak)
        np.testing.assert_array_equal(a.predicted_master, b.predicted_master)


class TestViewBankSemantics:
    def test_broadcast_skips_the_sender(self):
        vec, ref = _banks(4)
        for bank in (vec, ref):
            bank.view(2).set_memory(2, 99.0)  # the sender's own exact knowledge
            bank.apply_broadcast("memory", 2, 7.0)
        _assert_banks_equal(vec, ref)
        assert vec.view(2).memory[2] == 99.0  # own row untouched by the broadcast
        assert vec.view(0).memory[2] == 7.0
        assert vec.view(1).memory[2] == 7.0

    @pytest.mark.parametrize("kind", ["memory", "load", "subtree", "prediction"])
    def test_broadcast_kinds_match_reference(self, kind):
        vec, ref = _banks(5)
        for bank in (vec, ref):
            bank.apply_broadcast(kind, 1, 3.5)
            bank.apply_broadcast(kind, 3, -2.0)  # non-memory kinds clamp at zero
        _assert_banks_equal(vec, ref)

    def test_unknown_kind_raises(self):
        vec, _ = _banks(2)
        with pytest.raises(ValueError, match="unknown broadcast kind"):
            vec.apply_broadcast("voltage", 0, 1.0)

    def test_reservations_skip_source_and_slave_rows(self):
        vec, ref = _banks(4)
        reservations = [(1, 10.0), (3, 5.0)]
        for bank in (vec, ref):
            bank.apply_reservations(0, reservations)
        _assert_banks_equal(vec, ref)
        # the master (source=0) already accounted for its own decision
        assert vec.view(0).memory[1] == 0.0
        # a slave skips its own entry (it learns the truth from the task itself)
        assert vec.view(1).memory[1] == 0.0
        # third parties apply the reservation
        assert vec.view(2).memory[1] == 10.0
        assert vec.view(2).memory[3] == 5.0

    def test_reservations_clamp_at_zero_like_add_memory(self):
        vec, ref = _banks(3)
        for bank in (vec, ref):
            bank.apply_broadcast("memory", 1, 2.0)
            bank.apply_reservations(0, [(1, -10.0)])
        _assert_banks_equal(vec, ref)
        assert vec.view(2).memory[1] == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_random_op_sequences_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        nprocs = int(rng.integers(2, 9))
        vec, ref = _banks(nprocs)
        kinds = ["memory", "load", "subtree", "prediction"]
        for _ in range(60):
            source = int(rng.integers(0, nprocs))
            if rng.random() < 0.3:
                reservations = [
                    (int(q), float(rng.uniform(-50.0, 200.0)))
                    for q in rng.choice(nprocs, size=int(rng.integers(1, nprocs + 1)))
                ]
                for bank in (vec, ref):
                    bank.apply_reservations(source, reservations)
            else:
                kind = kinds[int(rng.integers(0, 4))]
                value = float(rng.uniform(-100.0, 1000.0))
                for bank in (vec, ref):
                    bank.apply_broadcast(kind, source, value)
        _assert_banks_equal(vec, ref)

    def test_row_views_share_storage_with_the_matrix(self):
        vec = ViewBank(3)
        vec.view(1).set_memory(2, 42.0)
        assert vec.memory[1, 2] == 42.0

    def test_nprocs_validation(self):
        with pytest.raises(ValueError):
            ViewBank(0)


class TestSimulationIdentity:
    """The no-regression gate on a realistic tree: ``soa`` == ``reference``, bitwise."""

    @pytest.fixture(scope="class")
    def tree(self):
        pattern = grid_3d(8, 8, 8)
        return build_assembly_tree(
            pattern, compute_ordering(pattern, "metis"), keep_variables=False
        )

    @pytest.mark.parametrize("nprocs", [4, 8])
    @pytest.mark.parametrize(
        "strategy", ["mumps-workload", "memory-basic", "memory-full", "hybrid"]
    )
    def test_bit_identical_simulations(self, tree, nprocs, strategy):
        config = SimulationConfig.paper(nprocs=nprocs)
        mapping = compute_mapping(tree, nprocs, **config.mapping_params())

        def run(engine: str):
            slave, task = get_strategy(strategy).build()
            return FactorizationSimulator(
                tree,
                config=config,
                mapping=mapping,
                slave_selector=slave,
                task_selector=task,
                engine=engine,
            ).run()

        vec, ref = run("soa"), run("reference")
        np.testing.assert_array_equal(vec.per_proc_peak_stack, ref.per_proc_peak_stack)
        np.testing.assert_array_equal(vec.per_proc_factor_entries, ref.per_proc_factor_entries)
        np.testing.assert_array_equal(vec.per_proc_tasks, ref.per_proc_tasks)
        assert vec.total_time == ref.total_time
        assert vec.message_counts == ref.message_counts
        assert vec.slave_selections == ref.slave_selections

