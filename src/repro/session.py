"""The :class:`Session` façade: declarative scenario runs over one engine.

A session owns an :class:`~repro.pipeline.engine.AnalysisPipeline` (the
content-addressed artifact store) and a lazily started
:class:`~repro.pipeline.executor.SweepExecutor` (long-lived worker processes
when ``jobs > 1``).  Everything it runs is declared as plain data — a
:class:`~repro.pipeline.stage.CaseSpec`, a dict, or a
:class:`~repro.specs.SweepSpec` grid — so the same session serves one-off
comparisons, the paper's tables and machine-scale sweeps that vary strategy
parameters *and* processor counts in a single call::

    with repro.open_session(nprocs=32, scale=0.5, jobs=4) as session:
        results = session.sweep(
            problems=["XENON2", "PRE2"],
            strategies=["hybrid(alpha=0.25)", "hybrid(alpha=0.5)", "hybrid(alpha=0.75)"],
            nprocs=[8, 16, 32],
        )
        payload = [r.to_dict() for r in results]       # JSON-ready

Results come back in grid order whatever the execution order was, so serial
and parallel runs are bit-identical.
"""

from __future__ import annotations

import os
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.pipeline import (
    AnalysisPipeline,
    AnalysisProducts,
    CaseResult,
    CaseSpec,
    ProgressEvent,
    SweepExecutor,
)
from repro.results import CaseResultView, ResultStore, ResultTable, case_key_for
from repro.runtime import SimulationConfig
from repro.symbolic import AMALGAMATION
from repro.specs import SweepSpec

__all__ = ["Session", "open_session", "percentage_decrease", "CaseLike"]


def percentage_decrease(baseline: float, improved: float) -> float:
    """Percentage decrease of ``improved`` with respect to ``baseline``.

    Positive values mean the improved strategy uses *less* memory, matching
    the sign convention of Tables 2, 3 and 5 of the paper.
    """
    if baseline <= 0:
        return 0.0
    return 100.0 * (baseline - improved) / baseline

#: Anything :meth:`Session.run` accepts as one case.
CaseLike = Union[CaseSpec, Mapping[str, object]]


def _as_spec(case: CaseLike) -> CaseSpec:
    if isinstance(case, CaseSpec):
        return case
    if isinstance(case, Mapping):
        return CaseSpec.from_dict(case)
    raise TypeError(f"expected a CaseSpec or a mapping, got {type(case).__name__}")


class Session:
    """Run declarative scenario specs against one shared engine.

    Parameters
    ----------
    nprocs:
        Default number of simulated processors (cases may override).
    scale:
        Default problem scale factor (cases may override).
    config:
        Base :class:`SimulationConfig`; ``nprocs`` is overridden by the
        session's value.  Defaults to :meth:`SimulationConfig.paper`.
    cache_dir:
        Directory for the on-disk artifact store (``None`` honours the
        ``REPRO_CACHE_DIR`` environment variable, ``""`` disables it).
    jobs:
        Default number of worker processes (1 = serial, in-process).
    progress:
        Optional per-case callback (receives a
        :class:`~repro.pipeline.ProgressEvent`).
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
        jobs: int = 1,
        progress: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> None:
        self.engine = AnalysisPipeline(
            nprocs=nprocs,
            scale=scale,
            config=config,
            cache_dir=cache_dir,
            amalgamation_relax=amalgamation_relax,
            amalgamation_min_pivots=amalgamation_min_pivots,
        )
        self.jobs = int(jobs)
        self.progress = progress
        self._executor: Optional[SweepExecutor] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down the sweep worker pool, if one was started.

        Idempotent and exception-safe: the executor reference is dropped
        *before* its shutdown runs, so a second ``close()`` (or the context
        manager exiting after an explicit close, or an executor whose pool
        already shut down underneath us) is always a no-op rather than a
        second shutdown attempt on a dead pool.
        """
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.close()

    @property
    def closed(self) -> bool:
        """Whether no worker pool is currently held (a run may start one)."""
        return self._executor is None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # cached pipeline stages (convenience passthroughs)
    # ------------------------------------------------------------------ #
    def pattern(self, problem: str):
        return self.engine.pattern(problem)

    def ordering(self, problem: str, ordering: str) -> np.ndarray:
        return self.engine.ordering(problem, ordering)

    def analysis(self, problem: str, ordering: str, *, split: bool = False) -> AnalysisProducts:
        """Pattern → ordering → assembly tree → (splitting) → static mapping."""
        return self.engine.analysis(problem, ordering, split=split)

    # ------------------------------------------------------------------ #
    # cases
    # ------------------------------------------------------------------ #
    def run(self, case: CaseLike) -> CaseResult:
        """Run one declarative case (a :class:`CaseSpec` or its dict form)."""
        return self.engine.run_case(_as_spec(case))

    def run_cases(
        self,
        cases: Sequence[CaseLike],
        *,
        jobs: int | None = None,
        on_result: Optional[Callable[[int, CaseSpec, CaseResult], None]] = None,
    ) -> list[CaseResult]:
        """Run explicit cases (serially or across a process pool, see ``jobs``).

        Runs at the session's own job count share one long-lived executor, so
        consecutive sweeps reuse the same worker processes and the artifacts
        they hold; an explicit ``jobs`` override gets a transient executor
        that is torn down afterwards.

        ``on_result(index, spec, result)`` is called in this process as each
        case completes (execution order).
        """
        specs = [_as_spec(case) for case in cases]
        jobs = self.jobs if jobs is None else int(jobs)
        if jobs == self.jobs:
            if self._executor is None:
                self._executor = SweepExecutor(self.engine, jobs=jobs, progress=self.progress)
            return self._executor.run(specs, on_result=on_result)
        with SweepExecutor(self.engine, jobs=jobs, progress=self.progress) as executor:
            return executor.run(specs, on_result=on_result)

    def sweep(
        self,
        spec: SweepSpec | Mapping[str, object] | None = None,
        *,
        jobs: int | None = None,
        store: "ResultStore | str | os.PathLike | None" = None,
        **axes,
    ) -> CaseResultView:
        """Run a declarative grid and return its results in grid order.

        Accepts a :class:`~repro.specs.SweepSpec`, its dict form, or the
        axes directly as keyword arguments::

            session.sweep(problems=["XENON2"], strategies=["hybrid(alpha=0.25)"],
                          nprocs=[8, 16, 32])

        Results come back in grid order (problem-major, see
        :meth:`SweepSpec.expand`) whatever the execution order was, so the
        parallel path is a drop-in for the serial one.

        A ``faults`` axis (fault specs, see :mod:`repro.faults`) turns cases
        into replicated fault studies: each faulted case runs a clean
        baseline plus ``replications`` seeded faulted replays and its
        :class:`CaseResult` carries the fault summary (``makespan_p50`` /
        ``makespan_p95``, ``degradation``, ``messages_lost``, ``retries``).
        The same ``(faults, fault_seed)`` pair always reproduces
        byte-identical results — see ``docs/robustness.md``.

        ``store`` (a :class:`~repro.results.ResultStore` or its directory)
        makes the sweep *resumable*: cases whose canonical key is already in
        the store are answered from it without touching the engine, and every
        freshly computed case streams into the store the moment it completes
        — interrupt the sweep anywhere and a rerun recomputes only what is
        missing.

        The return value is a :class:`~repro.results.CaseResultView`, a lazy
        sequence over a columnar :class:`~repro.results.ResultTable` that
        iterates, indexes and slices exactly like the ``list[CaseResult]``
        this method used to return (``.table`` exposes the columns).
        """
        if spec is None:
            sweep_spec = SweepSpec(**axes)
        else:
            if axes:
                raise TypeError("pass either a SweepSpec/dict or keyword axes, not both")
            sweep_spec = spec if isinstance(spec, SweepSpec) else SweepSpec.from_dict(spec)
        specs = sweep_spec.expand()
        keys = [case_key_for(self.engine, s) for s in specs]

        if store is None:
            results = self.run_cases(specs, jobs=jobs)
            table = ResultTable.from_results(results, keys=keys)
            return CaseResultView(table, computed=len(results), skipped=0)

        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        cached: dict[str, CaseResult] = {}
        pending_specs: list[CaseSpec] = []
        pending_keys: list[str] = []
        seen: set[str] = set()
        for case_spec, key in zip(specs, keys):
            if key in store:
                if key not in cached:
                    cached[key] = store.get(key)
            elif key not in seen:
                # grids can repeat a logical case (e.g. the same strategy
                # spelled two canonically-equal ways): compute it once
                seen.add(key)
                pending_specs.append(case_spec)
                pending_keys.append(key)
        computed: dict[str, CaseResult] = {}
        if pending_specs:
            # flush_every=1: each completed case is durable before the next
            # one starts, so an interrupt loses at most the case in flight
            with store.writer(flush_every=1) as writer:

                def _persist(index: int, _spec: CaseSpec, result: CaseResult) -> None:
                    writer.append(pending_keys[index], result)
                    computed[pending_keys[index]] = result

                self.run_cases(pending_specs, jobs=jobs, on_result=_persist)
        ordered = [cached[key] if key in cached else computed[key] for key in keys]
        table = ResultTable.from_results(ordered, keys=keys)
        return CaseResultView(table, computed=len(computed), skipped=len(cached))

    def compare(
        self,
        problem: str,
        ordering: str = "metis",
        *,
        baseline: str = "mumps-workload",
        candidate: str = "memory-full",
        split_baseline: bool = False,
        split_candidate: bool = False,
    ) -> dict[str, float]:
        """Percentage decrease of the max stack peak of ``candidate`` vs ``baseline``."""
        base, cand = self.run_cases(
            [
                CaseSpec(problem, ordering, baseline, split=split_baseline),
                CaseSpec(problem, ordering, candidate, split=split_candidate),
            ]
        )
        return {
            "baseline_peak": base.max_peak_stack,
            "candidate_peak": cand.max_peak_stack,
            "gain_percent": percentage_decrease(base.max_peak_stack, cand.max_peak_stack),
            "baseline_time": base.total_time,
            "candidate_time": cand.total_time,
            "time_loss_percent": (
                100.0 * (cand.total_time - base.total_time) / base.total_time
                if base.total_time > 0
                else 0.0
            ),
        }

    # ------------------------------------------------------------------ #
    # engine attribute passthroughs
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> SimulationConfig:
        return self.engine.config

    @property
    def nprocs(self) -> int:
        return self.engine.nprocs

    @property
    def scale(self) -> float:
        return self.engine.scale


def open_session(**kwargs) -> Session:
    """Open a :class:`Session` (use as a context manager to release workers).

    Keyword arguments are those of :class:`Session`; the common ones are
    ``nprocs``, ``scale``, ``cache_dir`` and ``jobs``.
    """
    return Session(**kwargs)
