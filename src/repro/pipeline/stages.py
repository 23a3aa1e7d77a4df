"""The six concrete stages of the factorization study pipeline.

``pattern → ordering → tree → split → mapping → simulate``

The first five form the *analysis* phase (expensive, shared by every strategy
of a case); the last one is the *simulation* phase (cheap, one run per
strategy).  Each stage declares exactly the parameters that influence its
output, so the engine's content-addressed keys invalidate precisely what a
parameter change actually affects — changing the strategy re-runs only the
simulation, changing the amalgamation re-runs everything from the tree down,
and so on.

Ordering and strategy parameters from the spec mini-language
(``"hybrid(alpha=0.3)"``) enter the keys in *canonical* form with defaults
bound, so equivalent spellings share artifacts while distinct
parameterisations never collide; the per-case ``nprocs`` / ``scale`` /
``split_threshold`` overrides enter through the stages they affect.
"""

from __future__ import annotations

from typing import Mapping

from repro.mapping import compute_mapping
from repro.ordering import canonical_ordering, compute_ordering
from repro.pipeline.stage import CaseSpec, SplitArtifact, Stage
from repro.runtime import FactorizationSimulator
from repro.scheduling import canonical_strategy, resolve_strategy
from repro.symbolic import build_assembly_tree, split_large_masters

def _get_problem(name: str):
    # deferred import: repro.experiments.__init__ imports the tables, which
    # import repro.session, which imports this package — a module-level
    # import here would close that cycle before either side finished
    # initialising
    from repro.experiments.problems import get_problem

    return get_problem(name)


__all__ = [
    "PatternStage",
    "OrderingStage",
    "TreeStage",
    "SplitStage",
    "MappingStage",
    "SimulationStage",
    "DEFAULT_STAGES",
]


class PatternStage(Stage):
    """Problem registry → synthetic :class:`~repro.sparse.SparsePattern`."""

    name = "pattern"
    persist = False  # deterministic and fast to regenerate

    def params(self, engine, spec: CaseSpec) -> dict[str, object]:
        return {"problem": _get_problem(spec.problem).name, "scale": engine.effective_scale(spec)}

    def compute(self, engine, spec: CaseSpec, upstream: Mapping[str, object]):
        return _get_problem(spec.problem).build(engine.effective_scale(spec))


class OrderingStage(Stage):
    """Pattern → fill-reducing permutation (METIS/PORD/AMD/AMF analogues)."""

    name = "ordering"
    requires = ("pattern",)
    persist = True  # the orderings dominate the analysis cost on big problems

    def params(self, engine, spec: CaseSpec) -> dict[str, object]:
        # canonical form, defaults bound: "metis" and "METIS(leaf_size=64)"
        # address the same artifact, "metis(leaf_size=32)" its own
        return {"ordering": canonical_ordering(spec.ordering)}

    def compute(self, engine, spec: CaseSpec, upstream: Mapping[str, object]):
        return compute_ordering(upstream["pattern"], spec.ordering)


class TreeStage(Stage):
    """(Pattern, permutation) → amalgamated assembly tree."""

    name = "tree"
    requires = ("pattern", "ordering")
    persist = False

    def params(self, engine, spec: CaseSpec) -> dict[str, object]:
        return {
            "amalgamation_min_pivots": engine.amalgamation_min_pivots,
            "amalgamation_relax": engine.amalgamation_relax,
        }

    def compute(self, engine, spec: CaseSpec, upstream: Mapping[str, object]):
        return build_assembly_tree(
            upstream["pattern"],
            upstream["ordering"],
            amalgamation_min_pivots=engine.amalgamation_min_pivots,
            amalgamation_relax=engine.amalgamation_relax,
            keep_variables=False,
            name=f"{_get_problem(spec.problem).name}-{spec.ordering}",
        )


class SplitStage(Stage):
    """Optional static splitting of large type-2 masters (Section 6)."""

    name = "split"
    requires = ("tree",)
    persist = False

    def threshold(self, engine, spec: CaseSpec) -> int:
        if spec.split_threshold is not None:
            return int(spec.split_threshold)
        base = _get_problem(spec.problem).split_threshold
        return max(int(base * engine.effective_scale(spec)), 1_000)

    def params(self, engine, spec: CaseSpec) -> dict[str, object]:
        params: dict[str, object] = {"split": bool(spec.split)}
        if spec.split:
            params["threshold"] = self.threshold(engine, spec)
        return params

    def compute(self, engine, spec: CaseSpec, upstream: Mapping[str, object]) -> SplitArtifact:
        tree = upstream["tree"]
        if not spec.split:
            return SplitArtifact(tree=tree, nodes_split=0, threshold=0)
        threshold = self.threshold(engine, spec)
        tree, report = split_large_masters(tree, threshold)
        return SplitArtifact(tree=tree, nodes_split=report.nodes_split, threshold=threshold)


class MappingStage(Stage):
    """Tree → static mapping (Geist-Ng layers, node types, candidates)."""

    name = "mapping"
    requires = ("split",)
    persist = False

    def params(self, engine, spec: CaseSpec) -> dict[str, object]:
        return {"nprocs": engine.effective_nprocs(spec), **engine.config.mapping_params()}

    def compute(self, engine, spec: CaseSpec, upstream: Mapping[str, object]):
        return compute_mapping(
            upstream["split"].tree,
            engine.effective_nprocs(spec),
            **engine.config.mapping_params(),
        )


class SimulationStage(Stage):
    """(Tree, mapping, strategy) → :class:`~repro.runtime.SimulationResult`."""

    name = "simulate"
    requires = ("split", "mapping")
    # cheap relative to the analysis and one result per (case, config) key —
    # caching them would grow a long-lived engine (benchmark harness, `repro
    # all`) without bound, so the simulation is re-run per request like the
    # pre-pipeline runner did
    cache = False
    persist = False

    def params(self, engine, spec: CaseSpec) -> dict[str, object]:
        # the full machine model matters here (rates, latencies, …), not just
        # the mapping thresholds, so hash every config field; the strategy
        # enters in canonical form with its parameters bound, so e.g. a
        # hybrid(alpha=0.3) result can never be addressed by the alpha=0.5 key
        params = dict(engine.effective_config(spec).__dict__)
        params["strategy"] = canonical_strategy(spec.strategy)
        params["track_traces"] = bool(spec.track_traces)
        # the fault axis enters only when set (in canonical form), so every
        # pre-existing clean key is preserved verbatim
        if params.get("faults"):
            from repro.faults import canonical_faults

            params["faults"] = canonical_faults(params["faults"])
        else:
            params.pop("faults", None)
            params.pop("fault_seed", None)
        return params

    def compute(self, engine, spec: CaseSpec, upstream: Mapping[str, object]):
        preset, strategy_params = resolve_strategy(spec.strategy)
        slave_selector, task_selector = preset.build(**strategy_params)
        config = engine.effective_config(spec).replace(track_traces=bool(spec.track_traces))
        sim = FactorizationSimulator(
            upstream["split"].tree,
            config=config,
            mapping=upstream["mapping"],
            slave_selector=slave_selector,
            task_selector=task_selector,
            strategy_name=preset.name,
        )
        return sim.run()


def simulate_batch(engine, specs: "list[CaseSpec]"):
    """Simulate case specs sharing one analysis and machine config in a batch.

    The specs must agree on everything upstream of the strategy (same mapping
    key, same config apart from ``track_traces`` and the fault axis) — the
    grouping in :meth:`AnalysisPipeline.run_cases_batched` guarantees this.
    One shared :class:`~repro.runtime.geometry.SimGeometry` and view bank
    serve every run (see :mod:`repro.runtime.batch`); results are
    bit-identical to the per-case :class:`SimulationStage` path and come back
    in spec order, one *list* of :class:`SimulationResult` per spec — a
    single run for clean cases, the clean baseline followed by the seeded
    faulted replications for faulted ones
    (:meth:`AnalysisPipeline.replication_configs`).
    """
    from repro.runtime.batch import BatchScenario, run_batch

    first = specs[0]
    tree = engine.artifact("split", first).tree
    mapping = engine.artifact("mapping", first)
    scenarios = []
    counts = []
    for spec in specs:
        preset, strategy_params = resolve_strategy(spec.strategy)
        configs = engine.replication_configs(spec)
        counts.append(len(configs))
        for cfg in configs:
            # fresh selector instances per scenario: selectors may carry
            # per-run state, and replications must not share it
            slave_selector, task_selector = preset.build(**strategy_params)
            scenarios.append(
                BatchScenario(
                    slave_selector=slave_selector,
                    task_selector=task_selector,
                    strategy_name=preset.name,
                    config=cfg,
                )
            )
    engine.stage_runs["simulate"] += len(scenarios)
    flat = run_batch(
        tree, scenarios, config=engine.effective_config(first), mapping=mapping
    )
    grouped = []
    offset = 0
    for count in counts:
        grouped.append(flat[offset : offset + count])
        offset += count
    return grouped


#: the stage chain in dependency order, as instantiated by the engine.
DEFAULT_STAGES: tuple[type[Stage], ...] = (
    PatternStage,
    OrderingStage,
    TreeStage,
    SplitStage,
    MappingStage,
    SimulationStage,
)
