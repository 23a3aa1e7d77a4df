"""The ``soa`` engine must be an exact drop-in for the reference.

``soa`` (the default) runs every simulation as one structure-of-arrays event
loop; the historical event core stays reachable as ``engine="reference"``
(or ``REPRO_SIM_ENGINE=reference``), and this suite pins ``soa``
*bit-identical* to it — every field of :class:`SimulationResult`, including
``message_counts`` and ``slave_selections``, over a randomized scenario
matrix of tree shapes × strategies × processor counts × latency
configurations.  It also pins every slave-selection context a run builds,
the final ``sim.views`` and the final clock, and checks oracle-free
invariants of a finished run.

The pipeline's ``run_case`` is pinned to one ``reference`` simulator per
replication config, and the slave selectors to the historical
per-candidate loops, kept here as oracles.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import canonical_faults
from repro.mapping import compute_mapping
from repro.pipeline import AnalysisPipeline, CaseResult, CaseSpec
from repro.runtime import FactorizationSimulator, SimulationConfig, resolve_engine
from repro.runtime import invariants
from repro.scheduling import get_strategy
from repro.scheduling.base import (
    SlaveSelectionContext,
    normalize_row_distribution,
    pairwise_sum,
)
from repro.scheduling.hybrid import HybridSlaveSelector
from repro.scheduling.memory_slave import MemorySlaveSelector, _cost_slack, _level_rows
from repro.scheduling.prediction import selection_metric
from repro.scheduling.workload import WorkloadSlaveSelector, _spread_rows
from repro.sparse import grid_2d
from repro.symbolic import AssemblyTree, build_assembly_tree


# --------------------------------------------------------------------------- #
# scenario matrix
# --------------------------------------------------------------------------- #
STRATEGIES = [
    "mumps-workload",
    "memory-basic",
    "memory-slave",
    "memory-task",
    "memory-full",
    "hybrid",
]

#: (seed, nprocs, strategy, latency, memory_message_latency, track_traces)
#: — zero-latency rows are the broadcast-storm stress (every broadcast of a
#: timestamp lands at the same instant), high-latency rows maximise view
#: staleness, and the traced rows also compare the full memory traces.
SCENARIOS = [
    (0, 2, "mumps-workload", 20.0e-6, 20.0e-6, False),
    (1, 3, "memory-basic", 20.0e-6, 20.0e-6, False),
    (2, 4, "memory-slave", 0.0, 0.0, False),
    (3, 4, "memory-task", 20.0e-6, 0.0, False),
    (4, 8, "memory-full", 0.0, 0.0, True),
    (5, 8, "hybrid", 20.0e-6, 20.0e-6, False),
    (6, 4, "memory-full", 1.0e-3, 1.0e-3, False),
    (7, 16, "memory-full", 20.0e-6, 20.0e-6, False),
    (8, 5, "mumps-workload", 0.0, 0.0, False),
    (9, 4, "hybrid", 0.0, 0.0, True),
    (10, 2, "memory-task", 1.0e-3, 20.0e-6, False),
    (11, 8, "memory-slave", 20.0e-6, 1.0e-3, False),
    (12, 6, "memory-full", 0.0, 20.0e-6, False),
    (13, 3, "hybrid", 1.0e-3, 0.0, False),
    (14, 16, "mumps-workload", 0.0, 0.0, False),
    (15, 7, "memory-basic", 20.0e-6, 20.0e-6, False),
]


def random_tree(seed: int) -> AssemblyTree:
    """A random valid assembly tree (postordered forest, random geometry)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 70))
    parent = np.full(n, -1, dtype=np.int64)
    for j in range(n - 1):
        # mostly one root; an occasional cut makes a forest
        parent[j] = -1 if rng.random() < 0.04 else int(rng.integers(j + 1, n))
    npiv = rng.integers(1, 18, size=n)
    nfront = npiv + rng.integers(0, 40, size=n)
    symmetric = bool(rng.random() < 0.5)
    return AssemblyTree(npiv, nfront, parent, symmetric=symmetric, nvars=int(npiv.sum()))


def run_engine(tree, config, mapping, strategy: str, engine: str):
    slave, task = get_strategy(strategy).build()
    return FactorizationSimulator(
        tree,
        config=config,
        mapping=mapping,
        slave_selector=slave,
        task_selector=task,
        engine=engine,
    ).run()


def assert_identical(fast, ref, *, traces: bool = False) -> None:
    np.testing.assert_array_equal(fast.per_proc_peak_stack, ref.per_proc_peak_stack)
    np.testing.assert_array_equal(fast.per_proc_factor_entries, ref.per_proc_factor_entries)
    np.testing.assert_array_equal(fast.per_proc_tasks, ref.per_proc_tasks)
    assert fast.total_time == ref.total_time
    assert fast.message_counts == ref.message_counts
    assert fast.slave_selections == ref.slave_selections
    assert fast.nodes == ref.nodes
    assert fast.total_factor_entries == ref.total_factor_entries
    if traces:
        assert fast.trace is not None and ref.trace is not None
        for p in range(fast.nprocs):
            np.testing.assert_array_equal(fast.trace.times[p], ref.trace.times[p])
            np.testing.assert_array_equal(fast.trace.stack[p], ref.trace.stack[p])
            np.testing.assert_array_equal(fast.trace.factors[p], ref.trace.factors[p])


#: engines pinned against "reference" by the fuzz matrix
OPTIMIZED_ENGINES = ("soa",)


class TestEngineIdentityFuzz:
    """Randomized scenario matrix: ``soa`` ≡ reference engine, bitwise."""

    @pytest.mark.parametrize("engine", OPTIMIZED_ENGINES)
    @pytest.mark.parametrize(
        "seed,nprocs,strategy,latency,mem_latency,traces", SCENARIOS
    )
    def test_random_scenarios(self, seed, nprocs, strategy, latency, mem_latency, traces, engine):
        tree = random_tree(seed)
        config = SimulationConfig(
            nprocs=nprocs,
            type2_front_threshold=24,
            type2_cb_threshold=6,
            type3_front_threshold=72,
            latency=latency,
            memory_message_latency=mem_latency,
            min_rows_per_slave=2,
            track_traces=traces,
        )
        mapping = compute_mapping(
            tree,
            nprocs,
            type2_front_threshold=config.type2_front_threshold,
            type2_cb_threshold=config.type2_cb_threshold,
            type3_front_threshold=config.type3_front_threshold,
        )
        opt = run_engine(tree, config, mapping, strategy, engine)
        ref = run_engine(tree, config, mapping, strategy, "reference")
        assert_identical(opt, ref, traces=traces)

    @pytest.mark.parametrize("engine", OPTIMIZED_ENGINES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matrix_built_tree(self, strategy, engine):
        """One realistic tree (pattern → analysis) per strategy, all engines."""
        pattern = grid_2d(14, 14)
        tree = build_assembly_tree(pattern, None, keep_variables=False)
        config = SimulationConfig.paper(nprocs=4, type2_front_threshold=40, type2_cb_threshold=8)
        mapping = compute_mapping(tree, 4, **config.mapping_params())
        opt = run_engine(tree, config, mapping, strategy, engine)
        ref = run_engine(tree, config, mapping, strategy, "reference")
        assert_identical(opt, ref)

    def test_single_processor(self):
        """nprocs=1 degenerate runs (no broadcasts, root split of one share)."""
        tree = random_tree(4)
        config = SimulationConfig(nprocs=1, track_traces=True)
        mapping = compute_mapping(tree, 1)
        ref = run_engine(tree, config, mapping, "memory-full", "reference")
        for engine in OPTIMIZED_ENGINES:
            assert_identical(
                run_engine(tree, config, mapping, "memory-full", engine), ref, traces=True
            )

    def test_custom_task_selector_falls_back(self):
        """A custom task selector keeps its contract: ``soa`` runs it on ``reference``."""
        from repro.scheduling.task_selection import LifoTaskSelector

        class AlwaysOldest(LifoTaskSelector):  # subclass ⇒ not inlined
            def select(self, ctx):
                return 0

        tree = random_tree(5)
        config = SimulationConfig(nprocs=4)
        mapping = compute_mapping(tree, 4)
        slave, _ = get_strategy("memory-full").build()

        def run(engine):
            sim = FactorizationSimulator(
                tree, config=config, mapping=mapping, slave_selector=slave,
                task_selector=AlwaysOldest(), engine=engine,
            )
            result = sim.run()
            assert sim.state is None  # the SoA loop never ran
            return result

        ref = run("reference")
        for engine in OPTIMIZED_ENGINES:
            assert_identical(run(engine), ref)


class TestRunCaseIdentity:
    """``run_case`` ≡ one ``reference`` simulator per replication config, folded."""

    def test_traced_spec_stays_isolated(self):
        """Traces on one case change neither its metrics nor a neighbour's run."""
        plain = CaseSpec("XENON2", "amd", "memory-full")
        traced = CaseSpec("XENON2", "amd", "memory-full", track_traces=True)
        engine = AnalysisPipeline(nprocs=4, scale=0.2, cache_dir="")
        results = [engine.run_case(spec).to_dict() for spec in (traced, plain, traced)]
        fresh = AnalysisPipeline(nprocs=4, scale=0.2, cache_dir="").run_case(plain)
        assert results == [fresh.to_dict()] * 3
        analysis = engine.analysis_for(traced)
        (config,) = engine.replication_configs(traced)
        ref = run_engine(analysis.tree, config, analysis.mapping, "memory-full", "reference")
        assert_identical(engine.artifact("simulate", traced), ref, traces=True)
        assert engine.artifact("simulate", plain).trace is None

    def test_faulted_run_case_matches_reference_replications(self):
        spec = CaseSpec(
            "XENON2", "amd", "hybrid", faults=FAULT_SPECS[1], fault_seed=5, replications=3
        )
        engine = AnalysisPipeline(nprocs=8, scale=0.2, cache_dir="")
        got = engine.run_case(spec)
        configs = engine.replication_configs(spec)
        assert engine.stage_runs["simulate"] == len(configs) == 4
        analysis = engine.analysis_for(spec)
        sims = [
            run_engine(analysis.tree, config, analysis.mapping, "hybrid", "reference")
            for config in configs
        ]
        want = CaseResult.from_replications(
            analysis, spec.strategy, sims[0], sims[1:], faults=canonical_faults(spec.faults)
        )
        assert got.to_dict() == want.to_dict()


#: fault specs exercising every injection site: static per-proc speeds,
#: transient slowdown windows, and message loss-and-retry (heap-routed
#: child-completed events in the SoA engine).
FAULT_SPECS = [
    "stragglers(frac=0.4,slowdown=4.0)",
    "stragglers(frac=0.2,slowdown=2.5)+msgloss(p=0.2,retry_timeout=5e-4)"
    "+slowdown(n=2,span=0.001,duration=0.0005,factor=3.0)",
]


class TestFaultIdentity:
    """Fault injection keeps every engine bit-identical to the reference —
    and ``faults=None`` keeps every engine bit-identical to the clean seed
    behaviour (the faults-off leg of the acceptance criteria)."""

    #: a subset of the clean matrix: enough shape/latency/strategy diversity
    #: without doubling the suite's runtime
    FAULT_SCENARIOS = [SCENARIOS[i] for i in (0, 2, 4, 6, 7, 9, 11)]

    @staticmethod
    def _setup(seed, nprocs, latency, mem_latency, traces, faults, tree=None):
        tree = random_tree(seed) if tree is None else tree
        config = SimulationConfig(
            nprocs=nprocs,
            type2_front_threshold=24,
            type2_cb_threshold=6,
            type3_front_threshold=72,
            latency=latency,
            memory_message_latency=mem_latency,
            min_rows_per_slave=2,
            track_traces=traces,
            faults=faults,
            fault_seed=seed + 17,
        )
        mapping = compute_mapping(
            tree,
            nprocs,
            type2_front_threshold=config.type2_front_threshold,
            type2_cb_threshold=config.type2_cb_threshold,
            type3_front_threshold=config.type3_front_threshold,
        )
        return tree, config, mapping

    @pytest.mark.parametrize("faults", FAULT_SPECS)
    @pytest.mark.parametrize(
        "seed,nprocs,strategy,latency,mem_latency,traces", FAULT_SCENARIOS
    )
    def test_faulted_engines_identical(
        self, seed, nprocs, strategy, latency, mem_latency, traces, faults
    ):
        tree, config, mapping = self._setup(
            seed, nprocs, latency, mem_latency, traces, faults
        )
        ref = run_engine(tree, config, mapping, strategy, "reference")
        for engine in OPTIMIZED_ENGINES:
            opt = run_engine(tree, config, mapping, strategy, engine)
            assert_identical(opt, ref, traces=traces)

    @pytest.mark.parametrize(
        "seed,nprocs,strategy,latency,mem_latency,traces", FAULT_SCENARIOS
    )
    def test_faults_off_identical_to_clean(
        self, seed, nprocs, strategy, latency, mem_latency, traces
    ):
        """faults=None must leave every engine exactly on the clean path."""
        tree, config, mapping = self._setup(
            seed, nprocs, latency, mem_latency, traces, None
        )
        clean = config.replace(fault_seed=0)
        assert clean.faults is None
        ref = run_engine(tree, clean, mapping, strategy, "reference")
        for engine in OPTIMIZED_ENGINES:
            assert_identical(run_engine(tree, clean, mapping, strategy, engine),
                             ref, traces=traces)

    def test_same_seed_reproduces_different_seed_diverges(self):
        tree, config, mapping = self._setup(2, 4, 20.0e-6, 20.0e-6, False, FAULT_SPECS[1])
        a = run_engine(tree, config, mapping, "memory-full", "soa")
        b = run_engine(tree, config, mapping, "memory-full", "soa")
        assert_identical(a, b)
        other = config.replace(fault_seed=config.fault_seed + 1)
        c = run_engine(tree, other, mapping, "memory-full", "soa")
        assert c.total_time != a.total_time

    def test_faults_change_the_outcome(self):
        """The injection actually bites: total_time grows under stragglers."""
        tree, config, mapping = self._setup(
            4, 8, 0.0, 0.0, False, "stragglers(frac=1.0,slowdown=4.0)"
        )
        clean_cfg = config.replace(faults=None, fault_seed=0)
        faulted = run_engine(tree, config, mapping, "memory-full", "soa")
        clean = run_engine(tree, clean_cfg, mapping, "memory-full", "soa")
        assert faulted.total_time > clean.total_time


class TestEngineSelection:
    def test_env_var_selects_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
        assert resolve_engine() == "reference"
        tree = random_tree(3)
        config = SimulationConfig(nprocs=2)
        slave, task = get_strategy("memory-full").build()
        sim = FactorizationSimulator(
            tree, config=config, slave_selector=slave, task_selector=task
        )
        assert sim.engine == "reference"

    def test_default_is_soa(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
        assert resolve_engine() == "soa"

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_ENGINE", "reference")
        assert resolve_engine("soa") == "soa"

    @pytest.mark.parametrize("name", ["flat", "fast", "jit", "FLAT"])
    def test_removed_engines_rejected(self, name):
        with pytest.raises(ValueError, match=r"choose one of \('soa', 'reference'\)"):
            resolve_engine(name)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown simulator engine"):
            resolve_engine("warp")

    def test_typo_gets_did_you_mean_hint(self):
        with pytest.raises(ValueError, match="did you mean 'soa'"):
            resolve_engine("sao")
        with pytest.raises(ValueError, match="did you mean 'reference'"):
            resolve_engine("referance")


# --------------------------------------------------------------------------- #
# selector-level equivalence: list selectors ≡ historical per-candidate loops
# --------------------------------------------------------------------------- #
def scalar_level_rows(chosen, chosen_mem, level, nfront, ncb, best) -> list[tuple[int, int]]:
    """Oracle of ``_level_rows``: the historical row-at-a-time levelling loop."""
    rows = np.zeros(best, dtype=np.int64)
    remaining = ncb
    for j in range(best):
        deficit_rows = int((level - chosen_mem[j]) // nfront)
        give = min(deficit_rows, remaining)
        rows[j] = give
        remaining -= give
        if remaining == 0:
            break
    # remaining rows are assigned equitably, one at a time
    j = 0
    while remaining > 0:
        rows[j % best] += 1
        remaining -= 1
        j += 1
    return [(int(q), int(r)) for q, r in zip(chosen, rows) if r > 0]


def scalar_memory_select(ctx: SlaveSelectionContext, use_predictions: bool):
    """Oracle of MemorySlaveSelector: the historical Algorithm 1 loops."""
    if ctx.ncb <= 0:
        return []
    candidates = [int(q) for q in ctx.candidates]
    if not candidates:
        return []
    metric = selection_metric(ctx, use_predictions=use_predictions)
    mem = np.array([float(metric[q]) for q in candidates])
    order = np.argsort(mem, kind="stable")
    sorted_procs = [candidates[int(i)] for i in order]
    sorted_mem = mem[order]
    nfront = max(ctx.nfront, 1)
    surface = float(ctx.ncb) * float(nfront)
    # the largest prefix 1..i whose levelling cost fits in the surface
    best = 1
    for i in range(1, len(sorted_procs) + 1):
        if float(np.sum(sorted_mem[i - 1] - sorted_mem[:i])) > surface:
            break
        best = i
    max_by_rows = max(1, ctx.ncb // max(ctx.min_rows_per_slave, 1))
    best = min(best, ctx.max_slaves, max_by_rows)
    return scalar_level_rows(
        sorted_procs[:best], sorted_mem[:best], sorted_mem[best - 1], nfront, ctx.ncb, best
    )


def scalar_workload_select(ctx: SlaveSelectionContext, proportional: bool):
    """Oracle of WorkloadSlaveSelector: the historical per-candidate loops."""
    if ctx.ncb <= 0:
        return []
    candidates = [int(q) for q in ctx.candidates]
    if not candidates:
        return []
    loads = np.array([float(ctx.load_view[q]) for q in candidates])
    order = np.argsort(loads, kind="stable")
    less_loaded = [candidates[int(i)] for i in order if loads[int(i)] < ctx.own_load]
    chosen_pool = less_loaded if less_loaded else [candidates[int(i)] for i in order]
    max_by_rows = max(1, ctx.ncb // max(ctx.min_rows_per_slave, 1))
    chosen = chosen_pool[: min(len(chosen_pool), ctx.max_slaves, max_by_rows)]
    if proportional:
        top = float(np.max(ctx.load_view))
        gaps = np.array([max(top - float(ctx.load_view[q]), 0.0) + 1.0 for q in chosen])
        weights = gaps / gaps.sum()
    else:
        weights = np.full(len(chosen), 1.0 / len(chosen))
    return _spread_rows(chosen, weights, ctx.ncb)


def scalar_hybrid_select(ctx: SlaveSelectionContext, alpha: float, use_predictions: bool):
    """Oracle of HybridSlaveSelector: the historical blend, presented to the
    scalar Algorithm 1 oracle as a second context over every processor."""
    if ctx.ncb <= 0 or len(ctx.candidates) == 0:
        return []

    def normalise(values) -> list[float]:
        lo = min(values)
        span = float(max(values) - lo)
        if span <= 0:
            return [0.0] * len(values)
        return [(v - lo) / span for v in values]

    memory = selection_metric(ctx, use_predictions=use_predictions)
    scale = max(float(ctx.ncb) * float(ctx.nfront), 1.0)
    scaled = [
        (alpha * m + (1.0 - alpha) * w) * scale
        for m, w in zip(normalise(memory), normalise(ctx.load_view))
    ]
    blended = replace(ctx, memory_view=scaled, effective_memory_view=scaled)
    return scalar_memory_select(blended, use_predictions)


def rebuilding_normalize(assignment, ncb, candidates):
    """Oracle of normalize_row_distribution: the clean-up loop that rebuilds
    every assignment."""
    if ncb <= 0:
        return []
    if isinstance(candidates, frozenset):
        candidate_set = candidates
    else:
        candidate_set = frozenset(int(c) for c in candidates)
    cleaned = []
    remaining = ncb
    for proc, rows in assignment:
        proc = int(proc)
        rows = int(rows)
        if proc not in candidate_set or rows <= 0 or remaining <= 0:
            continue
        rows = min(rows, remaining)
        cleaned.append((proc, rows))
        remaining -= rows
    if remaining > 0:
        if cleaned:
            proc, rows = cleaned[0]
            cleaned[0] = (proc, rows + remaining)
        elif candidate_set:
            cleaned.append((min(candidate_set), remaining))
    return cleaned


def random_context(seed: int) -> SlaveSelectionContext:
    rng = np.random.default_rng(seed)
    nprocs = int(rng.integers(2, 40))
    master = int(rng.integers(0, nprocs))
    pool = [q for q in range(nprocs) if q != master]
    ncand = int(rng.integers(1, len(pool) + 1))
    candidates = list(rng.choice(pool, size=ncand, replace=False))
    candidates = [int(q) for q in candidates]
    npiv = int(rng.integers(1, 60))
    ncb = int(rng.integers(0, 120))
    memory = rng.uniform(0.0, 5e4, size=nprocs)
    # exercise exact ties in the sort and in the levelling boundary
    if nprocs > 4 and rng.random() < 0.5:
        memory[:: 2] = memory[0]
    return SlaveSelectionContext(
        master_proc=master,
        node=0,
        npiv=npiv,
        nfront=npiv + ncb,
        ncb=ncb,
        symmetric=bool(rng.random() < 0.5),
        candidates=candidates,
        memory_view=memory,
        effective_memory_view=memory + rng.uniform(0.0, 1e4, size=nprocs),
        load_view=rng.uniform(0.0, 1e9, size=nprocs),
        own_load=float(rng.uniform(0.0, 1e9)),
        own_memory=float(rng.uniform(0.0, 5e4)),
        min_rows_per_slave=int(rng.integers(1, 8)),
        max_slaves=int(rng.integers(1, nprocs)),
    )


class TestSelectorVectorization:
    @pytest.mark.parametrize("seed", range(60))
    def test_memory_selector_matches_scalar(self, seed):
        ctx = random_context(seed)
        for use_predictions in (False, True):
            vec = MemorySlaveSelector(use_predictions=use_predictions).select(ctx)
            assert vec == scalar_memory_select(ctx, use_predictions)

    @settings(max_examples=300, deadline=None)
    @given(
        ncb=st.integers(0, 3000),
        nfront=st.integers(1, 4000),
        memories=st.lists(
            st.floats(0.0, 5e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=40
        ),
        best_fraction=st.floats(0.0, 1.0),
    )
    def test_level_rows_matches_scalar(self, ncb, nfront, memories, best_fraction):
        # Algorithm 1 levels a prefix of the ascending memories up to its top
        chosen_mem = np.sort(np.asarray(memories))
        best = 1 + int(best_fraction * (len(memories) - 1))
        chosen = list(range(100, 100 + best))
        args = (chosen, chosen_mem[:best], chosen_mem[best - 1], nfront, ncb, best)
        assert _level_rows(*args) == scalar_level_rows(*args)

    @pytest.mark.parametrize("seed", range(60))
    def test_workload_selector_matches_scalar(self, seed):
        ctx = random_context(seed + 1000)
        for proportional in (False, True):
            vec = WorkloadSlaveSelector(proportional=proportional).select(ctx)
            assert vec == scalar_workload_select(ctx, proportional)

    @pytest.mark.parametrize("seed", range(30))
    def test_hybrid_selector_matches_scalar(self, seed):
        ctx = random_context(seed + 2000)
        for alpha in (0.0, 0.3, 1.0):
            for use_predictions in (False, True):
                vec = HybridSlaveSelector(alpha=alpha, use_predictions=use_predictions).select(ctx)
                assert vec == scalar_hybrid_select(ctx, alpha, use_predictions)

    @pytest.mark.parametrize("seed", range(40))
    def test_levelling_cost_near_surface(self, seed):
        """Memories whose levelling cost lands within a few ulps of the
        surface, on either side: the closed form cannot settle the boundary
        and the exact sums must."""
        rng = np.random.default_rng(seed + 3000)
        nprocs = int(rng.integers(3, 40))
        master = int(rng.integers(0, nprocs))
        candidates = [q for q in range(nprocs) if q != master]
        npiv = int(rng.integers(1, 60))
        ncb = int(rng.integers(1, 120))
        surface = float(ncb) * float(npiv + ncb)
        # a prefix of k candidates whose gaps below its top sum to the surface
        k = int(rng.integers(2, len(candidates) + 1))
        top = float(rng.choice([1.0, 1e3, 1e6, 3e7]) * rng.uniform(1.0, 2.0)) + surface
        gaps = rng.uniform(0.0, 1.0, size=k - 1)
        gaps *= surface / gaps.sum()
        prefix = np.append(np.sort(top - gaps), top)

        def cost():
            return pairwise_sum([top - m for m in prefix])

        # walk the lowest member to where the exact cost crosses the surface,
        # then a few ulps either way
        below = cost() < surface
        while (cost() < surface) == below:
            prefix[0] = np.nextafter(prefix[0], -np.inf if below else np.inf)
        for _ in range(int(rng.integers(0, 5))):
            prefix[0] = np.nextafter(prefix[0], np.inf if rng.random() < 0.5 else -np.inf)
        rest = top + rng.uniform(0.0, 2.0 * surface, size=len(candidates) - k)
        memory = np.zeros(nprocs)
        memory[rng.permutation(candidates)] = np.concatenate((prefix, rest))
        ctx = SlaveSelectionContext(
            master_proc=master,
            node=0,
            npiv=npiv,
            nfront=npiv + ncb,
            ncb=ncb,
            symmetric=False,
            candidates=candidates,
            memory_view=memory,
            effective_memory_view=memory,
            load_view=rng.uniform(0.0, 1e9, size=nprocs),
            own_load=0.0,
            own_memory=0.0,
            min_rows_per_slave=1,
            max_slaves=nprocs,
        )
        # inside the band where the closed form cannot settle the boundary
        assert abs(cost() - surface) < _cost_slack(k, prefix[0], top)
        for use_predictions in (False, True):
            assert MemorySlaveSelector(use_predictions=use_predictions).select(
                ctx
            ) == scalar_memory_select(ctx, use_predictions)
        for alpha in (0.0, 0.5, 1.0):
            assert HybridSlaveSelector(alpha=alpha).select(ctx) == scalar_hybrid_select(
                ctx, alpha, True
            )

    @pytest.mark.parametrize("nprocs", [2, 3, 9, 33])
    def test_exact_ties_and_one_candidate(self, nprocs):
        base = random_context(11)
        for memory in (np.full(nprocs, 7.0), np.zeros(nprocs), np.full(nprocs, 1e12)):
            for candidates in ([q for q in range(1, nprocs)], [nprocs - 1]):
                for ncb in (1, 5, 200):
                    ctx = replace(
                        base,
                        master_proc=0,
                        ncb=ncb,
                        nfront=base.npiv + ncb,
                        candidates=candidates,
                        memory_view=memory,
                        effective_memory_view=memory,
                        load_view=np.full(nprocs, 3.0),
                        max_slaves=nprocs,
                    )
                    for use_predictions in (False, True):
                        assert MemorySlaveSelector(use_predictions=use_predictions).select(
                            ctx
                        ) == scalar_memory_select(ctx, use_predictions)
                    for alpha in (0.0, 0.5, 1.0):
                        assert HybridSlaveSelector(alpha=alpha).select(
                            ctx
                        ) == scalar_hybrid_select(ctx, alpha, True)

    @settings(max_examples=300, deadline=None)
    @given(
        memories=st.lists(
            st.floats(-1e-6, 1e9, allow_nan=False, allow_infinity=False), min_size=1, max_size=64
        ),
    )
    def test_cost_slack_bounds_closed_form(self, memories):
        """The closed-form levelling cost of every prefix lies within
        ``_cost_slack`` of the exact sum."""
        values = sorted(memories)
        running = 0.0
        for i, m in enumerate(values, start=1):
            running += m
            closed = float(i) * m - running
            exact = pairwise_sum([m - v for v in values[:i]])
            assert abs(closed - exact) <= _cost_slack(i, values[0], m)

    @pytest.mark.parametrize(
        "assignment,ncb",
        [
            ([(1, 3), (2, 4)], 7),  # clean
            ([(2, 7)], 7),  # clean, one slave
            ([(1, 3), (1, 4)], 7),  # clean, a repeated slave
            ([(1, 5), (2, 4)], 7),  # over-full
            ([(1, 9)], 7),  # over-full, one slave
            ([(1, 2), (2, 2)], 7),  # short
            ([(0, 3), (2, 4)], 7),  # a non-candidate (the master)
            ([(9, 7)], 7),  # only non-candidates
            ([(1, 0), (2, 7)], 7),  # a zero row
            ([(1, -2), (2, 9)], 7),  # a negative row
            ([], 7),  # nothing
            ([(1, 3), (2, 4)], 0),  # zero rows to place
            ([(np.int64(1), 3), (2, np.int64(4))], 7),  # numpy ints
            ([(1, 3.0), (2, 4)], 7),  # a float row count
            ([(1, True), (2, 6)], 7),  # a bool row count
            ([[1, 3], [2, 4]], 7),  # lists, not tuples
            (((1, 3), (2, 4)), 7),  # a tuple, not a list
        ],
    )
    def test_normalize_row_distribution_matches_rebuild(self, assignment, ncb):
        for candidates in ([1, 2, 3], frozenset({1, 2, 3}), np.array([3, 2, 1])):
            got = normalize_row_distribution(assignment, ncb, candidates)
            want = rebuilding_normalize(assignment, ncb, candidates)
            assert got == want
            assert type(got) is list
            assert all(type(x) is tuple and [type(v) for v in x] == [int, int] for x in got)

    def test_empty_candidates_and_zero_rows(self):
        ctx = random_context(7)
        empty = SlaveSelectionContext(
            master_proc=ctx.master_proc,
            node=0,
            npiv=ctx.npiv,
            nfront=ctx.nfront,
            ncb=0,
            symmetric=ctx.symmetric,
            candidates=[],
            memory_view=ctx.memory_view,
            effective_memory_view=ctx.effective_memory_view,
            load_view=ctx.load_view,
            own_load=ctx.own_load,
            own_memory=ctx.own_memory,
        )
        for selector in (MemorySlaveSelector(), WorkloadSlaveSelector(), HybridSlaveSelector()):
            assert selector.select(empty) == []


def with_scalar_oracle(slave):
    """``slave`` with its kernel swapped for the scalar oracle loops."""
    if isinstance(slave, HybridSlaveSelector):
        return SimpleNamespace(
            select=lambda c: scalar_hybrid_select(c, slave.alpha, slave.use_predictions)
        )
    if isinstance(slave, MemorySlaveSelector):
        return SimpleNamespace(select=lambda c: scalar_memory_select(c, slave.use_predictions))
    if isinstance(slave, WorkloadSlaveSelector):
        return SimpleNamespace(select=lambda c: scalar_workload_select(c, slave.proportional))
    raise TypeError(f"no scalar oracle for {type(slave).__name__}")


def run_oracle(tree, config, mapping, strategy: str):
    slave, task = get_strategy(strategy).build()
    return FactorizationSimulator(
        tree,
        config=config,
        mapping=mapping,
        slave_selector=with_scalar_oracle(slave),
        task_selector=task,
        engine="soa",
    ).run()


class TestSelectorOracleSimulations:
    """Whole ``soa`` simulations: list selectors ≡ the scalar oracles, bitwise.

    The contexts here are the ones a run really builds (stale views, exact
    ties from simultaneous broadcasts, predictions), over the same scenario
    matrix that pins ``soa`` to ``reference``."""

    @pytest.mark.parametrize(
        "seed,nprocs,strategy,latency,mem_latency,traces", SCENARIOS
    )
    def test_random_scenarios(self, seed, nprocs, strategy, latency, mem_latency, traces):
        tree = random_tree(seed)
        config = SimulationConfig(
            nprocs=nprocs,
            type2_front_threshold=24,
            type2_cb_threshold=6,
            type3_front_threshold=72,
            latency=latency,
            memory_message_latency=mem_latency,
            min_rows_per_slave=2,
            track_traces=traces,
        )
        mapping = compute_mapping(tree, nprocs, **config.mapping_params())
        assert_identical(
            run_engine(tree, config, mapping, strategy, "soa"),
            run_oracle(tree, config, mapping, strategy),
            traces=traces,
        )

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matrix_built_tree(self, strategy):
        """Paper config on a realistic tree, thresholds low enough for type-2 nodes."""
        pattern = grid_2d(14, 14)
        tree = build_assembly_tree(pattern, None, keep_variables=False)
        config = SimulationConfig.paper(nprocs=8, type2_front_threshold=24, type2_cb_threshold=6)
        mapping = compute_mapping(tree, 8, **config.mapping_params())
        assert_identical(
            run_engine(tree, config, mapping, strategy, "soa"),
            run_oracle(tree, config, mapping, strategy),
        )

    @pytest.mark.parametrize("faults", FAULT_SPECS)
    @pytest.mark.parametrize(
        "seed,nprocs,strategy,latency,mem_latency,traces", TestFaultIdentity.FAULT_SCENARIOS
    )
    def test_faulted_scenarios(self, seed, nprocs, strategy, latency, mem_latency, traces, faults):
        tree, config, mapping = TestFaultIdentity._setup(
            seed, nprocs, latency, mem_latency, traces, faults
        )
        assert_identical(
            run_engine(tree, config, mapping, strategy, "soa"),
            run_oracle(tree, config, mapping, strategy),
            traces=traces,
        )


# --------------------------------------------------------------------------- #
# what the selectors see and what a run leaves behind: soa ≡ reference
# --------------------------------------------------------------------------- #
#: the fuzz matrix: every clean scenario, plus the faulted subset under each spec
FUZZ_MATRIX = [(*row, None) for row in SCENARIOS] + [
    (*row, faults) for faults in FAULT_SPECS for row in TestFaultIdentity.FAULT_SCENARIOS
]
FUZZ_ARGS = "seed,nprocs,strategy,latency,mem_latency,traces,faults"


def cb_free_roots(tree: AssemblyTree) -> AssemblyTree:
    """``tree`` with its roots hung under one new root that has no CB.

    No parent frees a root's CB, so only a tree whose roots have none must
    end a run with every stack at 0; the old roots keep their geometry (and
    their type-2 mapping) and pass their CBs to the new root.
    """
    parent = np.append(tree.parent, -1)
    parent[tree.roots] = tree.nnodes
    size = max(int(tree.nfront[r] - tree.npiv[r]) for r in tree.roots) + 1
    npiv = np.append(tree.npiv, size)
    return AssemblyTree(
        npiv, np.append(tree.nfront, size), parent, symmetric=tree.symmetric,
        nvars=int(npiv.sum()),
    )


def fuzz_case(seed, nprocs, latency, mem_latency, traces, faults):
    tree, config, mapping = TestFaultIdentity._setup(
        seed, nprocs, latency, mem_latency, traces, faults, tree=cb_free_roots(random_tree(seed))
    )
    if faults is None:
        config = config.replace(fault_seed=0)
    return tree, config, mapping


class ContextSpy:
    """Wraps a slave selector; records the views of every context it is handed.

    Result identity cannot catch a wrong view that happens not to change the
    chosen slaves; the recorded bytes can.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.seen: list[tuple] = []

    def select(self, ctx: SlaveSelectionContext):
        self.seen.append((
            ctx.memory_view.tobytes(),
            ctx.effective_memory_view.tobytes(),
            ctx.load_view.tobytes(),
            float(ctx.own_load).hex(),
            float(ctx.own_memory).hex(),
        ))
        return self.inner.select(ctx)


def run_spied(tree, config, mapping, strategy: str, engine: str):
    """One run with a spied slave selector: (simulator, result, contexts seen)."""
    slave, task = get_strategy(strategy).build()
    spy = ContextSpy(slave)
    sim = FactorizationSimulator(
        tree, config=config, mapping=mapping, slave_selector=spy,
        task_selector=task, engine=engine,
    )
    result = sim.run()
    assert len(spy.seen) == result.slave_selections
    return sim, result, spy.seen


def view_bytes(sim) -> list[bytes]:
    views = sim.views
    return [
        m.tobytes()
        for m in (views.memory, views.load, views.subtree_peak, views.predicted_master)
    ]


def assert_same_end_state(fast, ref) -> None:
    assert view_bytes(fast) == view_bytes(ref)
    assert fast.queue.now == ref.queue.now


def assert_invariants(tree, sim, result) -> None:
    """Oracle-free checks of a finished run on a tree without root CBs."""
    # the makespan is at least the critical path and the work over P
    invariants.check(result, tree, sim.mapping, sim.config)
    state = sim.state
    # every front and contribution block is freed
    tol = 1e-9 * float(state.peak_stack.max())
    assert np.all(np.abs(state.stack) <= tol), state.stack
    # every factor entry of the tree is stored exactly once
    assert result.total_factor_entries == tree.total_factor_entries()


class TestViewIdentity:
    """Every selection context, the final ``sim.views`` and the final clock
    of ``soa`` match ``reference`` bit for bit, and a finished run passes
    the oracle-free invariants."""

    @pytest.mark.parametrize(FUZZ_ARGS, FUZZ_MATRIX)
    def test_fuzz_matrix(self, seed, nprocs, strategy, latency, mem_latency, traces, faults):
        tree, config, mapping = fuzz_case(seed, nprocs, latency, mem_latency, traces, faults)
        fast, result, seen = run_spied(tree, config, mapping, strategy, "soa")
        ref_sim, _, ref_seen = run_spied(tree, config, mapping, strategy, "reference")
        assert seen == ref_seen
        assert_same_end_state(fast, ref_sim)
        assert_invariants(tree, fast, result)


class TestRunInvariants:
    """Oracle-free checks of a finished ``soa`` run on a built tree."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_built_tree_stacks_end_at_zero(self, strategy):
        pattern = grid_2d(14, 14)
        tree = build_assembly_tree(pattern, None, keep_variables=False)
        config = SimulationConfig.paper(nprocs=8, type2_front_threshold=24, type2_cb_threshold=6)
        mapping = compute_mapping(tree, 8, **config.mapping_params())
        sim, result, _ = run_spied(tree, config, mapping, strategy, "soa")
        assert_invariants(tree, sim, result)
