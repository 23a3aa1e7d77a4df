"""The analysis pipeline engine.

:class:`AnalysisPipeline` owns the engine-level parameters (processor
count, problem scale, machine model, amalgamation knobs) and a
:class:`~repro.pipeline.store.TieredStore`.  It resolves the fixed stage
chain of :data:`~repro.pipeline.stages.STAGES`, derives content-addressed
keys and consults the store before running any stage, so arbitrary
interleavings of cases never recompute a shared artifact.

:class:`PipelineSettings` is the picklable description of an engine; sweep
workers rebuild their own engine from it (sharing the disk tier, when one is
configured) — see :mod:`repro.pipeline.executor`.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional

from repro.pipeline.stage import AnalysisProducts, CaseResult, CaseSpec, SplitArtifact
from repro.pipeline.stages import STAGES, simulate_strategy
from repro.pipeline.store import DiskStore, TieredStore, content_key
from repro.runtime import SimulationConfig, SimulationResult
from repro.symbolic import AMALGAMATION

__all__ = ["PipelineSettings", "AnalysisPipeline"]


@dataclass(frozen=True)
class PipelineSettings:
    """Everything needed to (re)build an :class:`AnalysisPipeline`.

    Plain data, picklable, comparable by value — the unit shipped to sweep
    worker processes.  Its fields are the engine's (and a
    :class:`~repro.session.Session`'s) keyword arguments.

    nprocs:
        Number of simulated processors (the paper uses 32).
    scale:
        Problem scale factor forwarded to the problem builders.
    config:
        Base :class:`SimulationConfig`; ``nprocs`` is overridden.  Defaults
        to :meth:`SimulationConfig.paper`.
    cache_dir:
        Directory for the disk artifact tier; ``""`` disables it.
    amalgamation_relax, amalgamation_min_pivots:
        The tree stage's amalgamation (see :data:`repro.symbolic.AMALGAMATION`).
    """

    nprocs: int = 32
    scale: float = 1.0
    config: Optional[SimulationConfig] = None
    cache_dir: str = ""
    amalgamation_relax: float = AMALGAMATION.relax
    amalgamation_min_pivots: int = AMALGAMATION.min_pivots

    def build(self) -> "AnalysisPipeline":
        # cache_dir is passed through verbatim: "" means "disk tier off" and
        # must stay off in workers (None would re-enable the REPRO_CACHE_DIR
        # fallback there, silently diverging from the driver engine)
        return AnalysisPipeline(**self.__dict__)


class AnalysisPipeline:
    """Resolve and cache the stage chain for experiment cases.

    Keyword arguments are the fields of :class:`PipelineSettings`, except
    that ``cache_dir`` defaults to ``None``: honour the ``REPRO_CACHE_DIR``
    environment variable (``""`` disables the disk tier).
    """

    def __init__(self, *, cache_dir: str | os.PathLike | None = None, **settings) -> None:
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_CACHE_DIR", "")
        self._settings = PipelineSettings(cache_dir=str(cache_dir) if cache_dir else "", **settings)
        self.nprocs = self._settings.nprocs
        self.scale = float(self._settings.scale)
        config = self._settings.config
        self.config = (
            SimulationConfig.paper(self.nprocs) if config is None else config.replace(nprocs=self.nprocs)
        )
        self.cache_dir = self._settings.cache_dir
        self.store = TieredStore(DiskStore(self.cache_dir) if self.cache_dir else None)
        #: number of actual stage computations per stage name (``"simulate"``
        #: counts simulator runs).  A cache hit (memory or disk tier) does
        #: not increment anything, so the counters distinguish "served from
        #: cache" from "recomputed" — the service layer exposes them and its
        #: tests assert on them.
        self.stage_runs: Counter[str] = Counter()
        # threads sharing the engine (the service daemon's HTTP handlers and
        # job workers) take turns per case or per artifact
        self._lock = threading.RLock()

    def settings(self) -> PipelineSettings:
        """The settings this engine was built from (``cache_dir`` resolved)."""
        return self._settings

    # ------------------------------------------------------------------ #
    # per-case effective parameters (spec overrides beat engine defaults)
    # ------------------------------------------------------------------ #
    def effective_nprocs(self, spec: CaseSpec) -> int:
        """Processor count of one case: its override, else the engine's."""
        return self.nprocs if spec.nprocs is None else int(spec.nprocs)

    def effective_scale(self, spec: CaseSpec) -> float:
        """Problem scale of one case: its override, else the engine's."""
        return self.scale if spec.scale is None else float(spec.scale)

    def effective_config(self, spec: CaseSpec) -> SimulationConfig:
        """The engine config with the case's ``nprocs``/``faults`` overrides applied."""
        cfg = self.config
        if spec.nprocs is not None and spec.nprocs != cfg.nprocs:
            cfg = cfg.replace(nprocs=int(spec.nprocs))
        if getattr(spec, "faults", None):
            cfg = cfg.replace(
                faults=str(spec.faults), fault_seed=int(getattr(spec, "fault_seed", 0))
            )
        return cfg

    def replication_configs(self, spec: CaseSpec) -> list[SimulationConfig]:
        """The machine configs one case actually runs.

        A clean case runs once.  A faulted case runs a clean baseline plus
        ``spec.replications`` faulted replays, each seeded deterministically
        from the case's ``fault_seed`` (CRC-mixed per replication index, see
        :func:`repro.faults.replication_seed`) — so the same
        ``(faults, fault_seed)`` pair reproduces byte-identical results on
        every backend.
        """
        cfg = self.effective_config(spec).replace(track_traces=bool(spec.track_traces))
        if not cfg.faults:
            return [cfg]
        from repro.faults import replication_seed

        reps = max(int(getattr(spec, "replications", 1) or 1), 1)
        return [cfg.replace(faults=None, fault_seed=0)] + [
            cfg.replace(fault_seed=replication_seed(cfg.fault_seed, rep))
            for rep in range(reps)
        ]

    # ------------------------------------------------------------------ #
    # stage resolution
    # ------------------------------------------------------------------ #
    def stage_key(self, stage_name: str, spec: CaseSpec) -> str:
        """Content-addressed key of one analysis stage's artifact for ``spec``."""
        stage = STAGES[stage_name]
        upstream_keys = tuple(self.stage_key(dep, spec) for dep in stage.requires)
        return content_key(stage_name, "1", stage.params(self, spec), upstream_keys)

    def artifact(self, stage_name: str, spec: CaseSpec) -> object:
        """Artifact of ``stage_name`` for ``spec``, computing what's missing.

        The store lookup happens *before* the upstream artifacts are
        resolved — keys derive recursively from params alone — so a hit
        (e.g. an ordering or a seeded analysis bundle from the disk tier)
        short-circuits the whole upstream chain instead of materialising it.

        ``"simulate"`` runs the one simulation of a clean case, uncached (see
        :meth:`run_case`); a faulted case runs several, so it raises
        :class:`ValueError`.
        """
        if stage_name == "simulate":
            config, *replays = self.replication_configs(spec)
            if replays:
                raise ValueError(
                    f"{spec.label()} is faulted: it runs a clean baseline plus seeded "
                    "replications, so run it with run_case"
                )
            with self._lock:
                return self._simulate(self.analysis_for(spec), spec.strategy, config)
        with self._lock:
            key = self.stage_key(stage_name, spec)
            try:
                return self.store.get(key)
            except KeyError:
                pass
            stage = STAGES[stage_name]
            upstream = [self.artifact(dep, spec) for dep in stage.requires]
            value = stage.compute(*upstream, **stage.params(self, spec))
            self.stage_runs[stage_name] += 1
            self.store.put(key, value, persist=stage.persist)
            return value

    # ------------------------------------------------------------------ #
    # convenience accessors (the façade and the figures use these)
    # ------------------------------------------------------------------ #
    def _spec(self, problem: str, ordering: str = "metis", *, split: bool = False) -> CaseSpec:
        return CaseSpec(problem=problem, ordering=ordering, split=split)

    def pattern(self, problem: str):
        return self.artifact("pattern", self._spec(problem))

    def tree(self, problem: str, ordering: str, *, split: bool = False):
        return self.artifact("split", self._spec(problem, ordering, split=split)).tree

    def analysis(self, problem: str, ordering: str, *, split: bool = False) -> AnalysisProducts:
        """The bundled analysis phase of a case at the engine defaults."""
        return self.analysis_for(self._spec(problem, ordering, split=split))

    def analysis_for(self, spec: CaseSpec) -> AnalysisProducts:
        """The bundled analysis phase (everything upstream of the simulation).

        The bundle itself is a derived artifact: cached in memory (so repeated
        calls return the same object) and persisted to the disk tier as one
        ``analysis-*.pkl`` file, which is what a fresh process or a sweep
        worker loads to skip the whole analysis phase in one read.  The
        spec's per-case overrides flow into the underlying stage keys, so
        every (scale, nprocs, threshold) variant is its own bundle.  Its
        ``ordering`` label is ``spec.ordering``, whichever spelling of that
        ordering built the bundle.
        """
        split_key = self.stage_key("split", spec)
        mapping_key = self.stage_key("mapping", spec)
        # version 2: bundles of version 1 carried the unscaled problem default
        # as ``split_threshold`` instead of the threshold the split applied
        key = content_key("analysis", "2", {}, (split_key, mapping_key))
        try:
            products: AnalysisProducts = self.store.get(key)
        except KeyError:
            pass
        else:
            # seed the stage-level artifacts the bundle carries, so a bundle
            # loaded from the disk tier lets the split/mapping accessors skip
            # the tree/split/mapping recompute
            if split_key not in self.store:
                seeded = SplitArtifact(
                    tree=products.tree,
                    nodes_split=products.nodes_split,
                    threshold=products.split_threshold,
                )
                self.store.put(split_key, seeded, persist=False)
            if mapping_key not in self.store:
                self.store.put(mapping_key, products.mapping, persist=False)
            if products.ordering != spec.ordering:
                products = replace(products, ordering=spec.ordering)
            return products
        from repro.pipeline.stages import _get_problem  # lazy (import cycle)

        split_art = self.artifact("split", spec)
        products = AnalysisProducts(
            problem=_get_problem(spec.problem).name,
            ordering=spec.ordering,
            scale=self.effective_scale(spec),
            split=bool(spec.split),
            split_threshold=split_art.threshold,
            tree=split_art.tree,
            mapping=self.artifact("mapping", spec),
            nodes_split=split_art.nodes_split,
        )
        self.store.put(key, products, persist=True)
        return products

    # ------------------------------------------------------------------ #
    # cases
    # ------------------------------------------------------------------ #
    def _simulate(
        self, analysis: AnalysisProducts, strategy: str, config: SimulationConfig
    ) -> SimulationResult:
        """The one simulate path: one uncached simulator run, counted.

        Simulation results are cheap relative to the analysis and one per
        (case, config): caching them would grow a long-lived engine (the
        service daemon, ``repro all``) without bound.
        """
        result = simulate_strategy(analysis.tree, analysis.mapping, strategy, config)
        self.stage_runs["simulate"] += 1
        return result

    def run_case(self, spec: CaseSpec) -> CaseResult:
        """Run one full case and return its metrics.

        Resolves the analysis once, then runs one simulator per
        :meth:`replication_configs` entry on its tree and mapping: a clean
        case runs once, a faulted case its clean baseline followed by the
        seeded faulted replications, folded into one :class:`CaseResult`.
        """
        with self._lock:
            analysis = self.analysis_for(spec)
            sims = [
                self._simulate(analysis, spec.strategy, config)
                for config in self.replication_configs(spec)
            ]
        if len(sims) == 1:
            return CaseResult.from_simulation(analysis, spec.strategy, sims[0])
        from repro.faults import canonical_faults

        return CaseResult.from_replications(
            analysis,
            spec.strategy,
            sims[0],
            sims[1:],
            faults=canonical_faults(self.effective_config(spec).faults),
        )
