"""The analysis pipeline engine.

The experimental apparatus of the paper is a cartesian product of cases,
each flowing through the same fixed chain::

    pattern → ordering → tree → split → mapping → simulate

The analysis (everything before ``simulate``) is shared by every
scheduling strategy of a case; only the simulation runs per strategy.

* :mod:`repro.pipeline.stage` — the data types flowing through the chain
  (:class:`CaseSpec`, :class:`AnalysisProducts`, :class:`CaseResult`);
* :mod:`repro.pipeline.stages` — the fixed table of the five analysis
  stages and the one simulate helper;
* :mod:`repro.pipeline.store` — content-addressed artifact stores
  (tiered memory / disk);
* :mod:`repro.pipeline.engine` — :class:`AnalysisPipeline`, which resolves
  the chain against a store;
* :mod:`repro.pipeline.executor` — :class:`SweepExecutor`, which runs many
  independent cases concurrently while sharing upstream artifacts.

See ``docs/pipeline.md`` for the architecture.
"""

from repro.pipeline.engine import AnalysisPipeline, PipelineSettings
from repro.pipeline.executor import ProgressEvent, SweepExecutor
from repro.pipeline.stage import AnalysisProducts, CaseResult, CaseSpec, SplitArtifact
from repro.pipeline.store import DiskStore, TieredStore, content_key

__all__ = [
    "AnalysisPipeline",
    "PipelineSettings",
    "SweepExecutor",
    "ProgressEvent",
    "CaseSpec",
    "SplitArtifact",
    "AnalysisProducts",
    "CaseResult",
    "DiskStore",
    "TieredStore",
    "content_key",
]
