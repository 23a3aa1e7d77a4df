"""The staged analysis pipeline engine.

:class:`AnalysisPipeline` owns the stage chain, the engine-level parameters
(processor count, problem scale, machine model, amalgamation knobs) and a
:class:`~repro.pipeline.store.TieredStore`.  It resolves stage dependency
graphs, derives content-addressed keys and consults the store before running
any stage, so arbitrary interleavings of cases never recompute a shared
artifact.

:class:`PipelineSettings` is the picklable description of an engine; sweep
workers rebuild their own engine from it (sharing the disk tier, when one is
configured) — see :mod:`repro.pipeline.executor`.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.pipeline.stage import AnalysisProducts, CaseResult, CaseSpec, SplitArtifact, Stage
from repro.pipeline.stages import DEFAULT_STAGES, simulate_strategy
from repro.pipeline.store import DiskStore, TieredStore, content_key
from repro.runtime import SimulationConfig, SimulationResult
from repro.symbolic import AMALGAMATION

__all__ = ["PipelineSettings", "AnalysisPipeline"]


def _default_config(nprocs: int) -> SimulationConfig:
    return SimulationConfig.paper(nprocs)


@dataclass(frozen=True)
class PipelineSettings:
    """Everything needed to (re)build an :class:`AnalysisPipeline`.

    Plain data, picklable, comparable by value — the unit shipped to sweep
    worker processes.
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
        return AnalysisPipeline(
            nprocs=self.nprocs,
            scale=self.scale,
            config=self.config,
            cache_dir=self.cache_dir,
            amalgamation_relax=self.amalgamation_relax,
            amalgamation_min_pivots=self.amalgamation_min_pivots,
        )


class AnalysisPipeline:
    """Resolve and cache the stage chain for experiment cases.

    Parameters
    ----------
    nprocs:
        Number of simulated processors (the paper uses 32).
    scale:
        Problem scale factor forwarded to the problem builders.
    config:
        Base :class:`SimulationConfig`; ``nprocs`` is overridden.
    cache_dir:
        Directory for the disk artifact tier (``None`` disables it).  The
        default honours the ``REPRO_CACHE_DIR`` environment variable.
    """

    def __init__(
        self,
        *,
        nprocs: int = 32,
        scale: float = 1.0,
        config: SimulationConfig | None = None,
        cache_dir: str | os.PathLike | None = None,
        amalgamation_relax: float = AMALGAMATION.relax,
        amalgamation_min_pivots: int = AMALGAMATION.min_pivots,
        stages: Iterable[type[Stage]] = DEFAULT_STAGES,
    ) -> None:
        if config is None:
            config = _default_config(nprocs)
        else:
            config = SimulationConfig(**{**config.__dict__, "nprocs": nprocs})
        self.config = config
        self.nprocs = nprocs
        self.scale = float(scale)
        self.amalgamation_relax = amalgamation_relax
        self.amalgamation_min_pivots = amalgamation_min_pivots
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_CACHE_DIR", "")
        self.cache_dir = str(cache_dir) if cache_dir else ""
        self.store = TieredStore(DiskStore(self.cache_dir) if self.cache_dir else None)
        self.stages: dict[str, Stage] = {cls.name: cls() for cls in stages}
        #: number of actual ``Stage.compute`` executions per stage name.  A
        #: cache hit (memory or disk tier) does not increment anything, so
        #: the counters distinguish "served from cache" from "recomputed" —
        #: the service layer exposes them and its tests assert on them.
        self.stage_runs: Counter[str] = Counter()
        # threads sharing the engine (the service daemon's HTTP handlers and
        # job workers) take turns per case or per artifact
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # settings round-trip (for sweep workers)
    # ------------------------------------------------------------------ #
    def settings(self) -> PipelineSettings:
        return PipelineSettings(
            nprocs=self.nprocs,
            scale=self.scale,
            config=self.config,
            cache_dir=self.cache_dir,
            amalgamation_relax=self.amalgamation_relax,
            amalgamation_min_pivots=self.amalgamation_min_pivots,
        )

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
        """Content-addressed key of one stage's artifact for ``spec``."""
        stage = self.stages[stage_name]
        upstream_keys = tuple(self.stage_key(dep, spec) for dep in stage.requires)
        return stage.key(self, spec, upstream_keys)

    def artifact(self, stage_name: str, spec: CaseSpec) -> object:
        """Artifact of ``stage_name`` for ``spec``, computing what's missing.

        The store lookup happens *before* the upstream artifacts are
        resolved — keys derive recursively from params alone — so a hit
        (e.g. an ordering or a seeded analysis bundle from the disk tier)
        short-circuits the whole upstream chain instead of materialising it.
        """
        with self._lock:
            stage = self.stages[stage_name]
            if stage.cache:
                key = self.stage_key(stage_name, spec)
                try:
                    return self.store.get(key)
                except KeyError:
                    pass
            upstream = {dep: self.artifact(dep, spec) for dep in stage.requires}
            value = stage.compute(self, spec, upstream)
            self.stage_runs[stage_name] += 1
            if stage.cache:
                self.store.put(key, value, persist=stage.persist)
            return value

    # ------------------------------------------------------------------ #
    # convenience accessors (the façade and the figures use these)
    # ------------------------------------------------------------------ #
    def _spec(self, problem: str, ordering: str = "metis", *, split: bool = False) -> CaseSpec:
        return CaseSpec(problem=problem, ordering=ordering, split=split)

    def pattern(self, problem: str):
        return self.artifact("pattern", self._spec(problem))

    def ordering(self, problem: str, ordering: str) -> np.ndarray:
        return self.artifact("ordering", self._spec(problem, ordering))

    def tree(self, problem: str, ordering: str, *, split: bool = False):
        return self.artifact("split", self._spec(problem, ordering, split=split)).tree

    def mapping(self, problem: str, ordering: str, *, split: bool = False):
        return self.artifact("mapping", self._spec(problem, ordering, split=split))

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
        every (scale, nprocs, threshold) variant is its own bundle.
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
            # loaded from the disk tier lets downstream stages (simulation)
            # skip the tree/split/mapping recompute instead of only skipping
            # this method
            if split_key not in self.store:
                seeded = SplitArtifact(
                    tree=products.tree,
                    nodes_split=products.nodes_split,
                    threshold=products.split_threshold,
                )
                self.store.put(split_key, seeded, persist=False)
            if mapping_key not in self.store:
                self.store.put(mapping_key, products.mapping, persist=False)
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
    def simulate(self, spec: CaseSpec) -> SimulationResult:
        """Run the simulation stage of one case (uncached, see SimulationStage)."""
        return self.artifact("simulate", spec)

    def run_case(self, spec: CaseSpec) -> CaseResult:
        """Run one full case and return its metrics.

        Resolves the analysis once, then runs one simulator per
        :meth:`replication_configs` entry on its tree and mapping: a clean
        case runs once, a faulted case its clean baseline followed by the
        seeded faulted replications, folded into one :class:`CaseResult`.
        """
        with self._lock:
            analysis = self.analysis_for(spec)
            sims = []
            for config in self.replication_configs(spec):
                sims.append(simulate_strategy(analysis.tree, analysis.mapping, spec.strategy, config))
                self.stage_runs["simulate"] += 1
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
