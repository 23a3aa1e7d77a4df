"""The fixed analysis chain of the factorization study, as one table.

``pattern → ordering → tree → split → mapping``, then one simulation per
strategy.

The analysis entries are expensive and shared by every strategy of a case;
the simulation is cheap and runs once per strategy (see
:meth:`AnalysisPipeline.run_case <repro.pipeline.engine.AnalysisPipeline.run_case>`).
Each :data:`STAGES` entry names its upstream stages, whether its artifact is
worth writing to the disk tier, the parameters that influence its output and
the function computing it.  The function takes the upstream artifacts
positionally and exactly those parameters as keywords, so an artifact's
content key covers everything its computation reads — changing the strategy
re-runs only the simulation, changing the amalgamation re-runs everything
from the tree down, and so on.

Ordering parameters from the spec mini-language (``"metis(leaf_size=32)"``)
enter the keys in *canonical* form with defaults bound, so equivalent
spellings share artifacts while distinct parameterisations never collide;
the per-case ``nprocs`` / ``scale`` / ``split_threshold`` overrides enter
through the stages they affect.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

from repro.mapping import compute_mapping
from repro.ordering import canonical_ordering, compute_ordering
from repro.pipeline.stage import CaseSpec, SplitArtifact
from repro.runtime import FactorizationSimulator, SimulationConfig, SimulationResult
from repro.scheduling import resolve_strategy
from repro.symbolic import build_assembly_tree, split_large_masters


def _get_problem(name: str):
    # deferred import: repro.experiments.__init__ imports the tables, which
    # import repro.session, which imports this package — a module-level
    # import here would close that cycle before either side finished
    # initialising
    from repro.experiments.problems import get_problem

    return get_problem(name)


__all__ = [
    "STAGES",
    "StageDef",
    "build_pattern",
    "order_pattern",
    "build_tree",
    "split_tree",
    "map_tree",
    "split_threshold",
    "simulate_strategy",
]


def build_pattern(*, problem: str, scale: float):
    """Problem registry → synthetic :class:`~repro.sparse.SparsePattern`."""
    return _get_problem(problem).build(scale)


def order_pattern(pattern, *, ordering: str):
    """Pattern → fill-reducing permutation (METIS/PORD/AMD/AMF analogues)."""
    return compute_ordering(pattern, ordering)


#: (pattern, permutation) → amalgamated assembly tree; the amalgamation
#: keywords default to :data:`repro.symbolic.AMALGAMATION`.
build_tree = partial(build_assembly_tree, keep_variables=False)


def split_tree(tree, *, split: bool, threshold: int = 0) -> SplitArtifact:
    """Optional static splitting of large type-2 masters (Section 6)."""
    if not split:
        return SplitArtifact(tree=tree)
    tree, report = split_large_masters(tree, threshold)
    return SplitArtifact(tree=tree, nodes_split=report.nodes_split, threshold=threshold)


def map_tree(split: SplitArtifact, *, nprocs: int, **mapping_params):
    """Tree → static mapping (Geist-Ng layers, node types, candidates)."""
    return compute_mapping(split.tree, nprocs, **mapping_params)


def split_threshold(engine, spec: CaseSpec) -> int:
    """The split threshold of one case: its override, else the scaled problem default."""
    if spec.split_threshold is not None:
        return int(spec.split_threshold)
    base = _get_problem(spec.problem).split_threshold
    return max(int(base * engine.effective_scale(spec)), 1_000)


def _split_params(engine, spec: CaseSpec) -> dict[str, object]:
    params: dict[str, object] = {"split": bool(spec.split)}
    if spec.split:
        params["threshold"] = split_threshold(engine, spec)
    return params


class StageDef(NamedTuple):
    """One entry of :data:`STAGES`."""

    #: names of the upstream stages, whose artifacts ``compute`` takes positionally
    requires: tuple[str, ...]
    #: whether the artifact is worth writing to the disk tier
    persist: bool
    #: ``params(engine, spec)``: every parameter that influences the output
    params: Callable[..., dict[str, object]]
    #: ``compute(*upstream, **params)``: the actual work
    compute: Callable[..., object]


#: the analysis chain in dependency order.  Each key is
#: ``content_key(name, "1", params, upstream_keys)``.
STAGES: dict[str, StageDef] = {
    # deterministic and fast to regenerate
    "pattern": StageDef(
        (),
        False,
        lambda engine, spec: {
            "problem": _get_problem(spec.problem).name,
            "scale": engine.effective_scale(spec),
        },
        build_pattern,
    ),
    # the orderings dominate the analysis cost on big problems; canonical
    # form, defaults bound: "metis" and "METIS(leaf_size=64)" address the
    # same artifact, "metis(leaf_size=32)" its own
    "ordering": StageDef(
        ("pattern",),
        True,
        lambda engine, spec: {"ordering": canonical_ordering(spec.ordering)},
        order_pattern,
    ),
    "tree": StageDef(
        ("pattern", "ordering"),
        False,
        lambda engine, spec: {
            "amalgamation_min_pivots": engine.settings().amalgamation_min_pivots,
            "amalgamation_relax": engine.settings().amalgamation_relax,
        },
        build_tree,
    ),
    "split": StageDef(("tree",), False, _split_params, split_tree),
    "mapping": StageDef(
        ("split",),
        False,
        lambda engine, spec: {
            "nprocs": engine.effective_nprocs(spec),
            **engine.config.mapping_params(),
        },
        map_tree,
    ),
}


def simulate_strategy(tree, mapping, strategy: str, config: SimulationConfig) -> SimulationResult:
    """One simulator run of ``strategy`` (a spec string) on ``tree``.

    Builds fresh selectors for the run (selectors may carry per-run state),
    so fault replications of one case never share them.  ``mapping=None``
    lets the simulator derive the static mapping from ``config``.  The one
    simulate chain behind
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
