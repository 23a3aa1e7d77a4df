"""Tests for the staged pipeline engine, artifact stores and sweep executor."""

import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import repro.pipeline.executor as executor_module

from repro.pipeline import (
    AnalysisPipeline,
    CaseSpec,
    DiskStore,
    PipelineSettings,
    SweepExecutor,
    TieredStore,
    content_key,
)
from repro.results import case_key_for


# --------------------------------------------------------------------------- #
# content keys
# --------------------------------------------------------------------------- #
class TestContentKey:
    def test_deterministic(self):
        a = content_key("tree", "1", {"x": 1, "y": 2.5}, ("pattern-abc",))
        b = content_key("tree", "1", {"y": 2.5, "x": 1}, ("pattern-abc",))
        assert a == b  # param order must not matter
        assert a.startswith("tree-")

    def test_sensitive_to_everything(self):
        base = content_key("tree", "1", {"x": 1}, ("up",))
        assert content_key("tree", "2", {"x": 1}, ("up",)) != base
        assert content_key("tree", "1", {"x": 2}, ("up",)) != base
        assert content_key("tree", "1", {"x": 1}, ("other",)) != base
        assert content_key("split", "1", {"x": 1}, ("up",)) != base


# --------------------------------------------------------------------------- #
# stores
# --------------------------------------------------------------------------- #
class TestStores:
    def test_disk_store_roundtrip(self, tmp_path):
        store = DiskStore(tmp_path)
        payload = {"arr": np.arange(5), "label": "x"}
        store.put("tree-abc", payload)
        assert (tmp_path / "tree-abc.pkl").exists()
        fresh = DiskStore(tmp_path)
        loaded = fresh.get("tree-abc")
        assert loaded["label"] == "x"
        assert np.array_equal(loaded["arr"], payload["arr"])
        assert list(fresh.keys()) == ["tree-abc"]

    def test_tiered_store_memory_only(self):
        store = TieredStore()
        assert "k" not in store
        store.put("k", [1, 2])
        assert "k" in store
        assert store.get("k") == [1, 2]
        with pytest.raises(KeyError):
            store.get("missing")

    def test_tiered_store_persist_flag(self, tmp_path):
        store = TieredStore(DiskStore(tmp_path))
        store.put("cheap-1", "a", persist=False)
        store.put("dear-1", "b", persist=True)
        assert not (tmp_path / "cheap-1.pkl").exists()
        assert (tmp_path / "dear-1.pkl").exists()
        # both visible through the memory tier
        assert store.get("cheap-1") == "a"
        assert store.get("dear-1") == "b"
        # a fresh tiered store only sees the persisted artifact
        fresh = TieredStore(DiskStore(tmp_path))
        assert "dear-1" in fresh and "cheap-1" not in fresh

    def test_tiered_store_promotes_disk_hits(self, tmp_path):
        DiskStore(tmp_path).put("k-1", 42)
        store = TieredStore(DiskStore(tmp_path))
        assert store.get("k-1") == 42
        assert "k-1" in store.memory

    def test_disk_store_writes_are_atomic(self, tmp_path):
        """A put never leaves a temp file behind, and readers racing writers
        always see a complete payload (write-temp-then-``os.replace``)."""
        import threading

        store = DiskStore(tmp_path, durable=True)
        store.put("hot", {"gen": -1, "blob": "x" * 4096})
        errors: list[BaseException] = []

        def writer() -> None:
            try:
                for gen in range(200):
                    store.put("hot", {"gen": gen, "blob": "x" * 4096})
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader() -> None:
            try:
                for _ in range(200):
                    payload = store.get("hot")  # never torn, never missing
                    assert len(payload["blob"]) == 4096
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        leftovers = [p.name for p in tmp_path.iterdir() if not p.name.endswith(".pkl")]
        assert leftovers == []


# --------------------------------------------------------------------------- #
# engine: cache-key invalidation
# --------------------------------------------------------------------------- #
SPEC = CaseSpec("XENON2", "metis", "memory-full")


def engine(**kwargs) -> AnalysisPipeline:
    kwargs.setdefault("nprocs", 4)
    kwargs.setdefault("scale", 0.2)
    return AnalysisPipeline(**kwargs)


ANALYSIS_STAGES = ("pattern", "ordering", "tree", "split", "mapping")


def keys(e: AnalysisPipeline, spec: CaseSpec, stages=ANALYSIS_STAGES) -> list[str]:
    """The analysis stage keys of ``spec``, then its result key."""
    return [e.stage_key(stage, spec) for stage in stages] + [case_key_for(e, spec)]


class TestCacheKeys:
    def test_keys_pinned(self):
        # the keys earlier versions wrote, so existing --cache directories keep hitting
        e = engine()
        bundle = content_key("analysis", "2", {}, (e.stage_key("split", SPEC), e.stage_key("mapping", SPEC)))
        assert [e.stage_key(stage, SPEC) for stage in ANALYSIS_STAGES] + [bundle] == [
            "pattern-fed669c192194aedaae20fe5",
            "ordering-bd4a57243f687f2d19751d69",
            "tree-6884fb160f79160809343035",
            "split-fa033460898a064a77c39dd3",
            "mapping-a3a95adfb4404e66ec3d9639",
            "analysis-43cd68231e60f56c9ba94e16",
        ]
        split = CaseSpec("XENON2", "metis", "memory-full", split=True)
        bundle = content_key("analysis", "2", {}, (e.stage_key("split", split), e.stage_key("mapping", split)))
        assert [e.stage_key("split", split), e.stage_key("mapping", split), bundle] == [
            "split-e6a58170dd8375c06c768a62",
            "mapping-5a1b71a2a6bba602372cc179",
            "analysis-2df2f543db2fa4ee9acbe1b7",
        ]

    def test_stage_keys_stop_at_upto(self):
        e = engine()
        full = e.stage_keys(SPEC)
        assert e.stage_keys(SPEC, upto="tree") == {name: full[name] for name in ("pattern", "ordering", "tree")}
        # a pattern lookup derives no ordering params, so an unparseable ordering does not reach it
        bad = CaseSpec("XENON2", "metis(", "memory-full")
        assert e.artifact("pattern", bad) is e.artifact("pattern", SPEC)
        with pytest.raises(ValueError):
            e.stage_key("ordering", bad)

    def test_keys_stable_across_engines(self):
        assert keys(engine(), SPEC) == keys(engine(), SPEC)

    def test_scale_invalidates_from_pattern_down(self):
        for a, b in zip(keys(engine(scale=0.2), SPEC), keys(engine(scale=0.25), SPEC)):
            assert a != b

    def test_ordering_invalidates_downstream_only(self):
        other = CaseSpec("XENON2", "amd", "memory-full")
        e = engine()
        assert e.stage_key("pattern", SPEC) == e.stage_key("pattern", other)
        downstream = ANALYSIS_STAGES[1:]
        for a, b in zip(keys(e, SPEC, downstream), keys(e, other, downstream)):
            assert a != b

    def test_amalgamation_invalidates_tree_down(self):
        a, b = engine(), engine(amalgamation_relax=0.3)
        assert a.stage_key("pattern", SPEC) == b.stage_key("pattern", SPEC)
        assert a.stage_key("ordering", SPEC) == b.stage_key("ordering", SPEC)
        downstream = ("tree", "split", "mapping")
        for x, y in zip(keys(a, SPEC, downstream), keys(b, SPEC, downstream)):
            assert x != y

    def test_nprocs_invalidates_mapping_down(self):
        a, b = engine(nprocs=4), engine(nprocs=8)
        for stage in ("pattern", "ordering", "tree", "split"):
            assert a.stage_key(stage, SPEC) == b.stage_key(stage, SPEC)
        for x, y in zip(keys(a, SPEC, ("mapping",)), keys(b, SPEC, ("mapping",))):
            assert x != y

    def test_strategy_invalidates_simulation_only(self):
        other = CaseSpec("XENON2", "metis", "mumps-workload")
        e = engine()
        for stage in ANALYSIS_STAGES:
            assert e.stage_key(stage, SPEC) == e.stage_key(stage, other)
        assert case_key_for(e, SPEC) != case_key_for(e, other)

    def test_split_invalidates_split_down(self):
        other = CaseSpec("XENON2", "metis", "memory-full", split=True)
        e = engine()
        for stage in ("pattern", "ordering", "tree"):
            assert e.stage_key(stage, SPEC) == e.stage_key(stage, other)
        downstream = ("split", "mapping")
        for a, b in zip(keys(e, SPEC, downstream), keys(e, other, downstream)):
            assert a != b


# --------------------------------------------------------------------------- #
# engine: artifact reuse and disk round-trips
# --------------------------------------------------------------------------- #
class TestEngine:
    def test_artifacts_cached_in_memory(self):
        e = engine()
        assert e.pattern("XENON2") is e.pattern("XENON2")
        assert e.analysis("XENON2", "metis") is e.analysis("XENON2", "metis")
        r1, r2 = e.run_case(SPEC), e.run_case(SPEC)
        assert r1.max_peak_stack == r2.max_peak_stack

    def test_strategies_share_analysis(self):
        e = engine()
        a = e.run_case(CaseSpec("XENON2", "metis", "mumps-workload"))
        b = e.run_case(CaseSpec("XENON2", "metis", "memory-full"))
        assert a.total_factor_entries == pytest.approx(b.total_factor_entries)

    def test_disk_roundtrip_through_engine(self, tmp_path):
        first = engine(cache_dir=tmp_path)
        products = first.analysis("XENON2", "amd")
        assert list(tmp_path.glob("analysis-*.pkl"))
        assert list(tmp_path.glob("ordering-*.pkl"))
        # a fresh engine reads the bundle back instead of recomputing
        fresh = engine(cache_dir=tmp_path)
        again = fresh.analysis("XENON2", "amd")
        assert again.tree.nnodes == products.tree.nnodes
        assert np.array_equal(again.mapping.owner, products.mapping.owner)

    def test_disk_reload_simulates_identically(self, tmp_path):
        direct = engine().run_case(SPEC)
        engine(cache_dir=tmp_path).analysis(SPEC.problem, SPEC.ordering)
        reloaded = engine(cache_dir=tmp_path).run_case(SPEC)
        assert reloaded.max_peak_stack == direct.max_peak_stack
        assert reloaded.total_time == direct.total_time
        assert reloaded.messages == direct.messages

    def test_simulation_results_not_retained(self):
        # simulations are uncached: a long-lived engine must not accumulate
        # one SimulationResult per (case, config)
        e = engine()
        first = e.artifact("simulate", SPEC)
        stored = len(e.store.memory)
        second = e.artifact("simulate", SPEC)
        assert first is not second
        assert first.max_peak_stack == second.max_peak_stack
        assert len(e.store.memory) == stored
        assert e.stage_runs["simulate"] == 2
        traced = e.artifact("simulate", CaseSpec("XENON2", "metis", "memory-full", track_traces=True))
        assert traced.max_peak_stack == first.max_peak_stack

    def test_simulate_artifact_refuses_faulted_specs(self):
        # run_case runs a faulted spec's clean baseline plus seeded
        # replications; no single simulation at the raw fault seed stands for it
        e = engine()
        faulted = CaseSpec("XENON2", "metis", faults="stragglers", fault_seed=5, replications=3)
        with pytest.raises(ValueError, match="run_case"):
            e.artifact("simulate", faulted)
        assert e.stage_runs["simulate"] == 0
        assert e.run_case(faulted).replications == 3
        assert e.stage_runs["simulate"] == 4

    def test_analysis_carries_the_spec_spelling(self):
        # one bundle serves both spellings of one ordering; each caller sees its own
        e = engine()
        plain = e.analysis_for(CaseSpec("XENON2", "metis"))
        spelled = e.analysis_for(CaseSpec("XENON2", "METIS(leaf_size=64)"))
        assert (plain.ordering, spelled.ordering) == ("metis", "METIS(leaf_size=64)")
        assert spelled.tree is plain.tree and spelled.mapping is plain.mapping
        assert e.analysis_for(CaseSpec("XENON2", "metis")) is plain

    def test_loaded_bundle_seeds_stage_artifacts(self, tmp_path):
        # an analysis bundle read from the disk tier must let the simulation
        # stage reuse the tree/mapping instead of recomputing them
        engine(cache_dir=tmp_path).analysis("XENON2", "metis")
        fresh = engine(cache_dir=tmp_path)
        products = fresh.analysis("XENON2", "metis")
        split_art = fresh.artifact("split", SPEC)
        assert split_art.tree is products.tree
        assert fresh.artifact("mapping", SPEC) is products.mapping

    def test_bundle_reports_the_applied_split_threshold(self, tmp_path):
        # the bundle reports the threshold the split stage applied (the
        # problem default scaled by 0.3 here), fresh and loaded from the disk tier
        from repro.experiments.problems import get_problem
        from repro.pipeline.stages import split_threshold

        spec = CaseSpec("XENON2", "metis", "memory-full", split=True, scale=0.3)
        first = engine(cache_dir=tmp_path)
        applied = split_threshold(first, spec)
        assert applied == int(get_problem("XENON2").split_threshold * 0.3)
        assert first.analysis_for(spec).split_threshold == applied
        fresh = engine(cache_dir=tmp_path)
        assert fresh.analysis_for(spec).split_threshold == applied
        assert fresh.artifact("split", spec).threshold == applied
        assert fresh.stage_runs["split"] == 0  # seeded from the bundle

    def test_settings_roundtrip(self, tmp_path):
        e = engine(cache_dir=tmp_path, amalgamation_relax=0.2)
        clone = e.settings().build()
        assert clone.settings() == e.settings()
        assert keys(clone, SPEC) == keys(e, SPEC)
        assert clone.cache_dir == str(tmp_path)


# --------------------------------------------------------------------------- #
# sweep executor
# --------------------------------------------------------------------------- #
GRID = [
    CaseSpec(problem, ordering, strategy)
    for problem in ("XENON2",)
    for ordering in ("metis", "amd")
    for strategy in ("mumps-workload", "memory-full")
]


def assert_case_results_equal(a, b):
    assert (a.problem, a.ordering, a.strategy, a.split) == (b.problem, b.ordering, b.strategy, b.split)
    assert a.max_peak_stack == b.max_peak_stack
    assert a.avg_peak_stack == b.avg_peak_stack
    assert a.sum_peak_stack == b.sum_peak_stack
    assert a.total_time == b.total_time
    assert a.total_factor_entries == b.total_factor_entries
    assert np.array_equal(a.per_proc_peak_stack, b.per_proc_peak_stack)
    assert (a.nodes, a.nodes_split, a.messages, a.nprocs) == (b.nodes, b.nodes_split, b.messages, b.nprocs)


class TestSweepExecutor:
    def test_grouping(self):
        groups = SweepExecutor.group_by_analysis(GRID)
        assert len(groups) == 2  # one per (problem, ordering, split)
        for group in groups:
            signatures = {spec.analysis_signature() for _, spec in group}
            assert len(signatures) == 1
            assert len(group) == 2

    def test_groups_by_analysis_signature(self):
        specs = [
            CaseSpec("XENON2", "metis", "mumps-workload"),
            CaseSpec("PRE2", "metis", "memory-full"),
            CaseSpec("XENON2", "metis", "memory-full"),
            CaseSpec("XENON2", "metis", "memory-full", nprocs=8),
        ]
        groups = SweepExecutor.group_by_analysis(specs)
        assert [[i for i, _ in group] for group in groups] == [[0, 2], [1], [3]]

    def test_spellings_of_one_analysis_form_one_group(self):
        specs = [CaseSpec("XENON2", "metis"), CaseSpec("xenon2", "METIS(leaf_size=64)", "mumps-workload")]
        e = engine()
        assert e.stage_key("mapping", specs[0]) == e.stage_key("mapping", specs[1])
        assert len(SweepExecutor.group_by_analysis(specs)) == 1

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            SweepExecutor(engine(), jobs=0)

    def test_empty_sweep(self):
        assert SweepExecutor(engine(), jobs=2).run([]) == []

    def test_serial_progress_order(self):
        events = []
        executor = SweepExecutor(engine(), jobs=1, progress=events.append)
        executor.run(GRID)
        assert [e.done for e in events] == [1, 2, 3, 4]
        assert all(e.total == 4 for e in events)
        assert [e.spec for e in events] == GRID

    def test_parallel_matches_serial(self):
        serial = SweepExecutor(engine(), jobs=1).run(GRID)
        events = []
        parallel = SweepExecutor(engine(), jobs=2, progress=events.append).run(GRID)
        assert len(parallel) == len(serial) == 4
        for a, b in zip(serial, parallel):
            assert_case_results_equal(a, b)
        # one progress event per case, monotonically counting up
        assert sorted(e.done for e in events) == [1, 2, 3, 4]

    def test_parallel_through_session(self):
        from repro.session import Session

        grid = {"problems": ["XENON2"], "orderings": ["metis"], "strategies": ["mumps-workload", "memory-full"]}
        with Session(nprocs=4, scale=0.2) as serial, Session(nprocs=4, scale=0.2, jobs=2) as parallel:
            a = serial.sweep(grid)
            b = parallel.sweep(grid)
        assert len(a) == len(b) == 2
        for x, y in zip(a, b):
            assert_case_results_equal(x, y)

    def test_ordering_spellings_serial_equals_parallel(self):
        # each result carries its own spec's ordering spelling, whatever the
        # engine saw first, so the serial and pooled bytes agree
        from repro.session import Session

        cases = [CaseSpec("XENON2", "metis"), CaseSpec("XENON2", "METIS(leaf_size=64)", "mumps-workload")]
        with Session(nprocs=4, scale=0.2, cache_dir="") as session:
            serial = session.run_cases(cases)
            parallel = session.run_cases(cases, jobs=2)
        assert [r.ordering for r in serial] == ["metis", "METIS(leaf_size=64)"]
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]

    def test_pool_reused_across_runs(self):
        executor = SweepExecutor(engine(), jobs=2)
        with executor:
            first = executor.run(GRID[:2])
            pool = executor._pool
            assert pool is not None
            second = executor.run(GRID[2:])
            assert executor._pool is pool  # same long-lived workers
            assert len(first) == len(second) == 2
        assert executor._pool is None  # context exit shuts the pool down

    def test_passed_deadline_raises_before_any_case(self):
        serial = engine()
        with pytest.raises(TimeoutError, match="4 of 4 case"):
            SweepExecutor(serial, jobs=1).run(GRID, deadline=time.monotonic())
        assert not serial.stage_runs
        with SweepExecutor(engine(), jobs=2) as executor:
            with pytest.raises(TimeoutError, match="4 of 4 case"):
                executor.run(GRID, deadline=time.monotonic())
            assert executor._pool is None  # nothing was submitted

    def test_serial_deadline_is_checked_before_each_case(self):
        def let_the_deadline_pass(index, spec, result):
            time.sleep(0.05)

        with pytest.raises(TimeoutError, match="3 of 4 case"):
            SweepExecutor(engine(), jobs=1).run(
                GRID, on_result=let_the_deadline_pass, deadline=time.monotonic() + 0.05
            )

    def test_pool_deadline_abandons_the_run_and_keeps_the_pool(self):
        with SweepExecutor(engine(), jobs=2) as executor:
            executor.run(GRID[:2])
            pool = executor._pool
            slow = [CaseSpec("XENON2", "metis", "memory-full", scale=3.0)]  # ~0.7 s
            with pytest.raises(TimeoutError, match="1 of 1 case"):
                executor.run(slow, deadline=time.monotonic() + 0.05)
            assert executor._pool is pool
            assert len(executor.run(GRID[2:])) == 2

    def test_close_idempotent(self):
        executor = SweepExecutor(engine(), jobs=2)
        executor.close()
        executor.close()

    def test_concurrent_runs_share_one_pool(self, monkeypatch):
        # the service daemon's job threads share one executor: its pool must
        # be created once, however the threads interleave
        created = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", CountingPool)
        results: list = [None] * 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SweepExecutor(engine(), jobs=2) as executor:

                def run(i):
                    results[i] = executor.run(GRID)

                threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(created) == 1
        serial = SweepExecutor(engine(), jobs=1).run(GRID)
        for parallel in results:
            for a, b in zip(serial, parallel):
                assert_case_results_equal(a, b)

    def test_workers_honour_disabled_cache(self, tmp_path, monkeypatch):
        # cache_dir="" means "disk tier off" — workers must not fall back to
        # the REPRO_CACHE_DIR environment variable behind the driver's back
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with SweepExecutor(engine(cache_dir=""), jobs=2) as executor:
            executor.run(GRID[:2])
        assert list(tmp_path.iterdir()) == []


class TestCaseSpec:
    def test_label_and_signature(self):
        spec = CaseSpec("PRE2", "amd", "memory-full", split=True)
        assert spec.label() == "PRE2/amd/memory-full+split"
        assert spec.analysis_signature() == ("PRE2", "amd(seed=0)", True)
        assert CaseSpec("PRE2", "amd", "mumps-workload", split=True).analysis_signature() == (
            "PRE2",
            "amd(seed=0)",
            True,
        )

    def test_settings_picklable(self):
        import pickle

        settings = PipelineSettings(nprocs=4, scale=0.2)
        clone = pickle.loads(pickle.dumps(settings))
        assert clone == settings
