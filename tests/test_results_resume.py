"""Resumable-sweep tests: interrupt, reopen, recompute only what is missing.

The acceptance contract of the result store: a sweep interrupted partway
through resumes from its store recomputing *only* the missing cases
(proven with the engine's ``stage_runs`` counters), every resumed result
is bit-identical to an uninterrupted run, and the interrupted store is
never corrupted — no torn segments, no lost completed cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.pipeline.stage import CaseSpec
from repro.results import ResultStore, case_key, case_key_for
from repro.runtime import SimulationConfig
from repro.session import open_session
from repro.specs import SweepSpec

NPROCS = 4
SCALE = 0.1

GRID = SweepSpec(
    problems=["XENON2"],
    orderings=["metis"],
    strategies=["mumps-workload", "memory-full"],
    nprocs=[4, 8],
)  # 4 cases


def assert_case_results_equal(a, b):
    assert a.to_dict() == b.to_dict()


class Interrupter:
    """A progress callback that raises after ``after`` completed cases."""

    def __init__(self, after: int) -> None:
        self.after = after
        self.seen = 0

    def __call__(self, event) -> None:
        self.seen += 1
        if self.seen >= self.after:
            raise KeyboardInterrupt("simulated interrupt")


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted run every resumed result must match bit for bit."""
    with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
        return list(session.sweep(GRID))


class TestResumeInline:
    def test_interrupt_then_resume_recomputes_only_missing(self, tmp_path, reference):
        store_dir = tmp_path / "store"

        # interrupted run: the progress hook fires after each case persists
        interrupter = Interrupter(after=2)
        with pytest.raises(KeyboardInterrupt):
            with open_session(
                nprocs=NPROCS, scale=SCALE, cache_dir="", progress=interrupter
            ) as session:
                session.sweep(GRID, store=store_dir)

        # the completed prefix is durable, nothing else
        store = ResultStore(store_dir, fsync=False)
        assert len(store) == 2
        assert store.replay_skipped == 0

        # resume: only the 2 missing cases touch the simulator
        with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
            resumed = session.sweep(GRID, store=store_dir)
            assert resumed.computed == 2
            assert resumed.skipped == 2
            assert session.engine.stage_runs["simulate"] == 2
        assert len(resumed) == 4
        for got, expected in zip(resumed, reference):
            assert_case_results_equal(got, expected)

    def test_second_resume_computes_nothing(self, tmp_path, reference):
        store_dir = tmp_path / "store"
        with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
            first = session.sweep(GRID, store=store_dir)
            assert first.computed == 4 and first.skipped == 0

        with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
            again = session.sweep(GRID, store=store_dir)
            assert again.computed == 0 and again.skipped == 4
            # the engine never ran a single stage: pure store reads
            assert sum(session.engine.stage_runs.values()) == 0
        for got, expected in zip(again, reference):
            assert_case_results_equal(got, expected)

    def test_store_accepts_a_path_or_an_instance(self, tmp_path, reference):
        store = ResultStore(tmp_path / "store", fsync=False)
        with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
            by_instance = session.sweep(GRID, store=store)
        with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
            by_path = session.sweep(GRID, store=tmp_path / "store")
        assert by_instance.computed == 4 and by_path.skipped == 4
        for got, expected in zip(by_path, reference):
            assert_case_results_equal(got, expected)

    def test_duplicate_grid_keys_computed_once(self, tmp_path):
        # the same logical strategy spelled two canonically-equal ways
        grid = SweepSpec(
            problems=["XENON2"],
            orderings=["metis"],
            strategies=["hybrid(alpha=0.5)", "hybrid( alpha = 0.5 )"],
        )
        with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
            results = session.sweep(grid, store=tmp_path / "store")
            assert len(results) == 2  # grid order is preserved...
            assert results.computed == 1  # ...but the case ran once
            assert session.engine.stage_runs["simulate"] == 1
        assert_case_results_equal(results[0], results[1])

    def test_error_mid_group_keeps_every_completed_case(self, tmp_path, reference):
        # GRID is two analysis groups (nprocs 4 and 8) of two strategies:
        # the third case completes inside the second group, then the run raises
        store_dir = tmp_path / "store"
        with pytest.raises(KeyboardInterrupt):
            with open_session(
                nprocs=NPROCS, scale=SCALE, cache_dir="", progress=Interrupter(after=3)
            ) as session:
                session.sweep(GRID, store=store_dir)
        store = ResultStore(store_dir, fsync=False)
        assert store.stats() == {"rows": 3, "segments": 2, "replay_skipped": 0}
        for spec, expected in zip(GRID.expand()[:3], reference):
            with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
                key = case_key_for(session.engine, spec)
            assert_case_results_equal(store.get(key), expected)


class TestKeysBindTheMachine:
    """A case key names the machine model and amalgamation it ran under."""

    CASE = SweepSpec(problems=["XENON2"], orderings=["metis"], strategies=["memory-full"])

    def _served_to_a_default_session(self, store_dir):
        with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
            served = session.sweep(self.CASE, store=store_dir)
            fresh = session.run(self.CASE.expand()[0])
        return served, fresh

    def test_a_store_of_another_machine_serves_no_default_case(self, tmp_path):
        slow = SimulationConfig.paper(NPROCS, latency=5e-3, memory_message_latency=5e-3)
        with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="", config=slow) as session:
            slow_result = session.sweep(self.CASE, store=tmp_path / "store")[0]
        served, fresh = self._served_to_a_default_session(tmp_path / "store")
        assert (served.computed, served.skipped) == (1, 0)
        assert_case_results_equal(served[0], fresh)
        assert slow_result.total_time != fresh.total_time

    def test_a_store_of_another_amalgamation_serves_no_default_case(self, tmp_path):
        with open_session(
            nprocs=NPROCS, scale=SCALE, cache_dir="", amalgamation_relax=0.3
        ) as session:
            session.sweep(self.CASE, store=tmp_path / "store")
        served, fresh = self._served_to_a_default_session(tmp_path / "store")
        assert (served.computed, served.skipped) == (1, 0)
        assert_case_results_equal(served[0], fresh)

    def test_default_engine_keys_bind_nothing_new(self):
        spec = CaseSpec("XENON2", "metis", "memory-full")
        for config in (None, SimulationConfig.paper(NPROCS, track_traces=True)):
            with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="", config=config) as session:
                key = case_key_for(session.engine, spec)
            assert key == case_key(spec, nprocs=NPROCS, scale=SCALE)


class TestResumeParallel:
    def test_interrupted_parallel_sweep_resumes(self, tmp_path, reference):
        store_dir = tmp_path / "store"
        interrupter = Interrupter(after=2)
        with pytest.raises(KeyboardInterrupt):
            with open_session(
                nprocs=NPROCS, scale=SCALE, cache_dir="", jobs=2, progress=interrupter
            ) as session:
                session.sweep(GRID, store=store_dir)

        store = ResultStore(store_dir, fsync=False)
        done = len(store)
        assert 2 <= done < 4  # the 2 persisted cases, maybe an in-flight one
        assert store.replay_skipped == 0

        with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="", jobs=2) as session:
            resumed = session.sweep(GRID, store=store_dir)
            assert resumed.computed == 4 - done
            assert resumed.skipped == done
        for got, expected in zip(resumed, reference):
            assert_case_results_equal(got, expected)


class TestSweepViewContract:
    """``Session.sweep`` keeps the historical list contract (lazy view)."""

    def test_sweep_without_store_returns_list_like_view(self, reference):
        with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
            results = session.sweep(GRID)
        assert len(results) == 4
        assert results.computed == 4 and results.skipped == 0
        # indexing, negative indexing, slicing, iteration, zip
        assert_case_results_equal(results[0], reference[0])
        assert_case_results_equal(results[-1], reference[-1])
        sliced = results[1:3]
        assert isinstance(sliced, list) and len(sliced) == 2
        for got, expected in zip(results, reference):
            assert_case_results_equal(got, expected)
        # the columns underneath are exposed for analysis
        assert len(results.table) == 4
        np.testing.assert_array_equal(
            results.table.column("nprocs"), np.asarray([4, 8, 4, 8])
        )

    def test_view_rows_keep_grid_order(self, tmp_path, reference):
        with open_session(nprocs=NPROCS, scale=SCALE, cache_dir="") as session:
            results = session.sweep(GRID, store=tmp_path / "store")
        got = [(r.strategy, r.nprocs) for r in results]
        expected = [(r.strategy, r.nprocs) for r in reference]
        assert got == expected
