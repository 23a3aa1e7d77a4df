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

import contextlib
import os
import threading
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

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
        self._executor_lock = threading.Lock()

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
        with self._executor_lock:
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

    @contextlib.contextmanager
    def _executor_for(self, jobs: int | None) -> Iterator[SweepExecutor]:
        """The session's one executor, or a transient one for another ``jobs``.

        The session's executor is built once, under a lock, so threads that
        share the session (the service daemon's job workers) share its pool.
        """
        jobs = self.jobs if jobs is None else int(jobs)
        if jobs != self.jobs:
            with SweepExecutor(self.engine, jobs=jobs, progress=self.progress) as executor:
                yield executor
            return
        with self._executor_lock:
            if self._executor is None:
                self._executor = SweepExecutor(self.engine, jobs=jobs, progress=self.progress)
            executor = self._executor
        yield executor

    def run_cases(self, cases: Sequence[CaseLike], *, jobs: int | None = None) -> list[CaseResult]:
        """Run explicit cases (serially or across a process pool, see ``jobs``).

        Runs at the session's own job count share one long-lived executor, so
        consecutive sweeps reuse the same worker processes and the artifacts
        they hold; an explicit ``jobs`` override gets a transient executor
        that is torn down afterwards.
        """
        specs = [_as_spec(case) for case in cases]
        with self._executor_for(jobs) as executor:
            return executor.run(specs)

    def run_stored(
        self,
        cases: Sequence[CaseLike],
        store: "ResultStore | str | os.PathLike",
        *,
        jobs: int | None = None,
        deadline: float | None = None,
        on_seal: Optional[Callable[[list[str]], None]] = None,
    ) -> CaseResultView:
        """Run ``cases`` against ``store``, computing only the keys it lacks.

        Every case is keyed with :func:`~repro.results.case_key_for`.  A key
        the store holds is answered from it; every other key runs once, on
        the executor :meth:`run_cases` would use (``deadline`` is a
        :func:`time.monotonic` instant, see :meth:`SweepExecutor.run`).  The
        new results of one analysis group
        (:meth:`SweepExecutor.group_by_analysis`) are sealed as one store
        batch as soon as the group completes; if the run raises, the cases
        that completed are sealed before the exception propagates, so a rerun
        recomputes only what is missing.

        ``on_seal(keys)`` is called with the keys of each group, in case
        order, once every one of them is durable in the store (at once for a
        group the store already holds): a caller that journals progress from
        it never names a key the store lacks.

        Returns the results in case order, as :meth:`sweep` does.
        """
        specs = [_as_spec(case) for case in cases]
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        store.refresh()
        keys = [case_key_for(self.engine, spec) for spec in specs]
        cached = {key: store.get(key) for key in keys if key in store}
        missing: dict[str, CaseSpec] = {}
        for key, spec in zip(keys, specs):
            if key not in cached:
                missing.setdefault(key, spec)
        todo = list(missing.items())
        # the missing cases run group by group, so the serial path completes
        # (and seals) one analysis group at a time
        groups = [
            [todo[i] for i, _ in group]
            for group in SweepExecutor.group_by_analysis([spec for _, spec in todo])
        ]
        run = [pair for group in groups for pair in group]
        group_of = {key: g for g, group in enumerate(groups) for key, _ in group}
        buffers: list[list[tuple[str, CaseResult]]] = [[] for _ in groups]
        computed: dict[str, CaseResult] = {}
        shards = [[keys[i] for i, _ in group] for group in SweepExecutor.group_by_analysis(specs)]
        reported = [False] * len(shards)

        def seal(batch: list[tuple[str, CaseResult]]) -> None:
            store.seal([key for key, _ in batch], [result for _, result in batch])

        def report() -> None:
            if on_seal is None:
                return
            for s, shard in enumerate(shards):
                if not reported[s] and all(key in store for key in shard):
                    reported[s] = True
                    on_seal(shard)

        def collect(index: int, _spec: CaseSpec, result: CaseResult) -> None:
            key = run[index][0]
            computed[key] = result
            g = group_of[key]
            buffers[g].append((key, result))
            if len(buffers[g]) == len(groups[g]):
                batch, buffers[g] = buffers[g], []
                seal(batch)
                report()

        report()
        try:
            with self._executor_for(jobs) as executor:
                executor.run([spec for _, spec in run], on_result=collect, deadline=deadline)
        finally:
            # an interrupted run keeps what completed: seal the partial groups
            seal([pair for buffer in buffers for pair in buffer])
        ordered = [cached[key] if key in cached else computed[key] for key in keys]
        table = ResultTable.from_results(ordered, keys=keys)
        return CaseResultView(table, computed=len(computed), skipped=len(cached))

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
        makes the sweep *resumable* (see :meth:`run_stored`): cases whose
        canonical key is already in the store are answered from it without
        touching the engine, and the fresh results of each analysis group
        are sealed into the store as one batch as soon as the group
        completes — durability is per analysis group, not per case.  An
        interrupted sweep seals the cases that completed, so a rerun
        recomputes only what is missing.

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
        if store is not None:
            return self.run_stored(specs, store, jobs=jobs)
        results = self.run_cases(specs, jobs=jobs)
        table = ResultTable.from_results(results, keys=[case_key_for(self.engine, s) for s in specs])
        return CaseResultView(table, computed=len(results), skipped=0)

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
