"""repro — reproduction of *Memory-based scheduling for a parallel multifrontal solver*.

Guermouche & L'Excellent (LIP RR2004-17 / IPPS 2004) propose dynamic,
memory-based scheduling strategies for the parallel multifrontal solver
MUMPS: a memory-levelling slave selection for type-2 nodes (Algorithm 1),
static-knowledge injection into that selection (subtree peaks and predicted
master tasks, Section 5.1), a memory-aware task selection in the local pools
(Algorithm 2), and a static splitting of nodes with large master parts.

This package rebuilds the whole stack needed to study those strategies
offline:

* a sparse-pattern substrate and synthetic analogues of the paper's test
  matrices (:mod:`repro.sparse`, :mod:`repro.experiments.problems`);
* fill-reducing orderings standing in for METIS, PORD, AMD and AMF
  (:mod:`repro.ordering`);
* the symbolic analysis producing assembly trees, plus the splitting and the
  sequential memory models (:mod:`repro.symbolic`, :mod:`repro.analysis`);
* the static mapping and a discrete-event simulator of the asynchronous
  parallel factorization (:mod:`repro.mapping`, :mod:`repro.runtime`);
* the scheduling strategies themselves (:mod:`repro.scheduling`);
* the staged pipeline engine — six content-addressed stages
  (pattern → ordering → tree → split → mapping → simulate), a tiered
  memory/disk artifact store and a process-pool sweep executor
  (:mod:`repro.pipeline`, see ``docs/pipeline.md``);
* a declarative scenario API on top of it all — unified plugin registries
  (:mod:`repro.registry`), parameterized specs and the spec mini-language
  (:mod:`repro.specs`), and the :class:`~repro.session.Session` façade
  regenerating every table and figure of the paper
  (:mod:`repro.session`, :mod:`repro.experiments`, see ``docs/api.md``);
* a columnar result store of sealed batches and resumable sweeps —
  ``Session.sweep(store=...)`` skips already-computed cases and the sweep
  service pages ``GET /results`` straight off the columns
  (:mod:`repro.results`, see ``docs/results.md``).

Quickstart
----------
Compare the paper's memory-based strategy against the MUMPS baseline on one
case (the one-call façade)::

    >>> from repro import quick_compare
    >>> quick_compare("XENON2", "metis", nprocs=8, scale=0.4)   # doctest: +SKIP
    {'baseline_peak': ..., 'candidate_peak': ..., 'gain_percent': ...}

Open a session and sweep a declarative grid — strategy parameters and
processor counts are first-class axes, four worker processes share every
analysis artifact through an on-disk store::

    >>> import repro
    >>> with repro.open_session(scale=0.6, cache_dir=".repro_cache", jobs=4) as s:
    ...     results = s.sweep(                                  # doctest: +SKIP
    ...         problems=["XENON2", "PRE2"],
    ...         orderings=["metis", "amd"],
    ...         strategies=["mumps-workload", "hybrid(alpha=0.25)", "hybrid(alpha=0.75)"],
    ...         nprocs=[8, 16, 32],
    ...     )
    ...     payload = [r.to_dict() for r in results]            # JSON-ready

Or drive the engine directly with explicit case specs::

    >>> from repro.pipeline import AnalysisPipeline, CaseSpec
    >>> engine = AnalysisPipeline(nprocs=8, scale=0.4)
    >>> engine.run_case(CaseSpec("XENON2", "metis", "memory-full"))  # doctest: +SKIP
    CaseResult(problem='XENON2', ...)

The same sweeps are available from the command line::

    python -m repro table2 --jobs 4 --nprocs 32 --scale 1.0
    python -m repro sweep --problems XENON2 --strategies 'hybrid(alpha=0.25)' \\
        --nprocs 8,16,32 --jobs 4 --format json
    python -m repro list --format json
"""

from __future__ import annotations

from repro.sparse import SparsePattern
from repro.ordering import compute_ordering, ORDERINGS
from repro.registry import Registry
from repro.specs import ParamSpec, SweepSpec, parse_spec
from repro.symbolic import AssemblyTree, build_assembly_tree, split_large_masters
from repro.analysis import sequential_memory_trace, sequential_stack_peak
from repro.mapping import compute_mapping, StaticMapping, NodeType
from repro.runtime import FactorizationSimulator, SimulationConfig, SimulationResult
from repro.scheduling import STRATEGIES, get_strategy, resolve_strategy
from repro.session import Session, open_session
from repro.pipeline import CaseResult, CaseSpec
from repro.pipeline.stages import simulate_strategy
from repro.results import CaseResultView, ResultStore, ResultTable, case_key
from repro.experiments import PROBLEMS, get_problem

__version__ = "2.0.0"

__all__ = [
    "SparsePattern",
    "compute_ordering",
    "ORDERINGS",
    "Registry",
    "ParamSpec",
    "SweepSpec",
    "parse_spec",
    "AssemblyTree",
    "build_assembly_tree",
    "split_large_masters",
    "sequential_memory_trace",
    "sequential_stack_peak",
    "compute_mapping",
    "StaticMapping",
    "NodeType",
    "FactorizationSimulator",
    "SimulationConfig",
    "SimulationResult",
    "STRATEGIES",
    "get_strategy",
    "resolve_strategy",
    "Session",
    "open_session",
    "CaseSpec",
    "CaseResult",
    "CaseResultView",
    "ResultStore",
    "ResultTable",
    "case_key",
    "PROBLEMS",
    "get_problem",
    "quick_compare",
    "simulate",
]


def simulate(
    pattern: SparsePattern,
    *,
    ordering: str = "metis",
    strategy: str = "memory-full",
    nprocs: int = 32,
    split_threshold: int | None = None,
    config: SimulationConfig | None = None,
) -> SimulationResult:
    """One-call pipeline: pattern → ordering → tree → mapping → simulation.

    ``ordering`` and ``strategy`` accept the spec mini-language
    (``"hybrid(alpha=0.3)"``).  Convenience wrapper for scripts and
    examples; the experiment harness uses :class:`repro.session.Session`
    instead (it caches the analysis products across strategies).
    """
    perm = compute_ordering(pattern, ordering)
    tree = build_assembly_tree(pattern, perm)
    if split_threshold is not None:
        tree, _ = split_large_masters(tree, split_threshold)
    if config is None:
        config = SimulationConfig.paper(nprocs)
    return simulate_strategy(tree, None, strategy, config)


def quick_compare(
    problem: str,
    ordering: str = "metis",
    *,
    nprocs: int = 32,
    scale: float = 1.0,
    split: bool = False,
) -> dict[str, float]:
    """Compare the paper's memory strategy against the MUMPS baseline on one case."""
    with open_session(nprocs=nprocs, scale=scale) as session:
        return session.compare(problem, ordering, split_baseline=split, split_candidate=split)
