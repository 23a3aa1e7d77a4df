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
from repro.runtime import FactorizationSimulator, SimulationConfig, SimulationResult
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
    "simulate_strategy",
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
        config = engine.effective_config(spec).replace(track_traces=bool(spec.track_traces))
        return simulate_strategy(upstream["split"].tree, upstream["mapping"], spec.strategy, config)


def simulate_strategy(tree, mapping, strategy: str, config: SimulationConfig) -> SimulationResult:
    """One simulator run of ``strategy`` (a spec string) on ``tree``.

    Builds fresh selectors for the run (selectors may carry per-run state),
    so fault replications of one case never share them.  ``mapping=None``
    lets the simulator derive the static mapping from ``config``.  The one
    simulate chain behind :class:`SimulationStage`,
    :meth:`AnalysisPipeline.run_case <repro.pipeline.engine.AnalysisPipeline.run_case>`
    and :func:`repro.simulate`.
    """
    preset, params = resolve_strategy(strategy)
    slave_selector, task_selector = preset.build(**params)
    return FactorizationSimulator(
        tree,
        config=config,
        mapping=mapping,
        slave_selector=slave_selector,
        task_selector=task_selector,
        strategy_name=preset.name,
    ).run()


#: the stage chain in dependency order, as instantiated by the engine.
DEFAULT_STAGES: tuple[type[Stage], ...] = (
    PatternStage,
    OrderingStage,
    TreeStage,
    SplitStage,
    MappingStage,
    SimulationStage,
)
