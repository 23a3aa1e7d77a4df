"""Parallel sweep execution over independent cases.

A sweep is a list of :class:`~repro.pipeline.stage.CaseSpec`; the executor
runs them all and returns their :class:`~repro.pipeline.stage.CaseResult` in
the *input order*, whatever the execution order was — results are therefore
byte-for-byte identical between the serial and the parallel path.

Parallel scheduling groups the cases by their analysis signature
(problem, ordering, split): one process-pool task per group, so the expensive
analysis phase of a group is computed once in the worker that owns it and
only the small per-case metrics travel back.  Workers are long-lived (one
engine per process, built from the picklable :class:`PipelineSettings`), so
artifacts also carry over between the groups a worker happens to receive —
e.g. the pattern of a problem swept under four orderings — and a shared disk
tier extends that sharing across workers and across runs.

One executor may serve several threads at once (the service daemon's job
workers): they share its one pool, and a crash replaces only the pool that
broke.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional, Sequence

from repro.pipeline.engine import AnalysisPipeline, PipelineSettings
from repro.pipeline.stage import CaseResult, CaseSpec

__all__ = ["SweepExecutor", "ProgressEvent", "WorkerCrashError"]

#: consecutive pool rebuilds before a crashing sweep gives up.
MAX_POOL_REBUILDS = 3


class WorkerCrashError(RuntimeError):
    """A worker process died (OOM-kill, SIGKILL, hard crash) mid-shard.

    Raised after the pool was rebuilt :data:`MAX_POOL_REBUILDS` times in one
    run; the dead pool has been dropped, so the next run starts a fresh one.
    That is what makes the error *retryable*: the service daemon counts it
    toward a job's ``max_attempts`` like any other shard failure.
    """


class ProgressEvent:
    """One completed case, as reported to the progress callback."""

    __slots__ = ("done", "total", "spec", "seconds")

    def __init__(self, done: int, total: int, spec: CaseSpec, seconds: float) -> None:
        self.done = done
        self.total = total
        self.spec = spec
        self.seconds = seconds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProgressEvent({self.done}/{self.total}, {self.spec.label()}, {self.seconds:.2f}s)"


# ----------------------------------------------------------------------- #
# worker side
# ----------------------------------------------------------------------- #
_WORKER_ENGINE: Optional[AnalysisPipeline] = None


def _init_worker(settings: PipelineSettings) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = settings.build()


def _run_group(indexed_specs: list[tuple[int, CaseSpec]]) -> list[tuple[int, CaseResult, float]]:
    """Run one analysis group inside a worker; returns (index, result, seconds)."""
    assert _WORKER_ENGINE is not None, "worker engine not initialised"
    out = []
    for index, spec in indexed_specs:
        start = time.perf_counter()
        result = _WORKER_ENGINE.run_case(spec)
        out.append((index, result, time.perf_counter() - start))
    return out


# ----------------------------------------------------------------------- #
# driver side
# ----------------------------------------------------------------------- #
def _time_left(deadline: Optional[float], unfinished: int, total: int) -> Optional[float]:
    """Seconds until ``deadline`` (``None`` = unbounded); raises once it passed."""
    if deadline is None:
        return None
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError(f"deadline passed with {unfinished} of {total} case(s) unfinished")
    return left


class SweepExecutor:
    """Run a list of cases serially or across a process pool.

    Parameters
    ----------
    engine:
        The driver-side engine.  With ``jobs == 1`` cases run directly on it;
        with ``jobs > 1`` its :meth:`~AnalysisPipeline.settings` are shipped
        to the workers, so they see the same scale/config/cache directory.
    jobs:
        Number of worker processes (``1`` = in-process serial execution).
    progress:
        Optional callback invoked once per completed case with a
        :class:`ProgressEvent`; called from the driver process only.
    """

    def __init__(
        self,
        engine: AnalysisPipeline,
        *,
        jobs: int = 1,
        progress: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.engine = engine
        self.jobs = jobs
        self.progress = progress
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()

    # -------------------------------------------------------------- #
    def run(
        self,
        specs: Sequence[CaseSpec],
        *,
        on_result: Optional[Callable[[int, CaseSpec, CaseResult], None]] = None,
        deadline: Optional[float] = None,
    ) -> list[CaseResult]:
        """Run every case and return results in input order.

        ``on_result(index, spec, result)`` is invoked in the driver process
        as each case *completes* — i.e. in execution order, not input order —
        which is what lets a result store persist the finished prefix of a
        sweep before the sweep is done (and therefore before a crash).

        ``deadline`` is a :func:`time.monotonic` instant.  The serial path
        checks it before each case; the pool path bounds its waits by it and
        abandons the unfinished groups at expiry (their workers finish in the
        background, the results go unused).  Either way an expired deadline
        raises :class:`TimeoutError`.
        """
        specs = list(specs)
        if not specs:
            return []
        if self.jobs == 1:
            return self._run_serial(specs, on_result, deadline)
        return self._run_parallel(specs, on_result, deadline)

    def close(self) -> None:
        """Shut down the worker pool (no-op if none was started).

        Safe to call repeatedly and from ``finally`` blocks: the pool
        reference is cleared before the shutdown, so even a shutdown that
        raises (e.g. a broken pool reaped by the OS) leaves the executor in
        the closed state instead of retrying the same failure on re-entry.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- #
    def _emit(self, done: int, total: int, spec: CaseSpec, seconds: float) -> None:
        if self.progress is not None:
            self.progress(ProgressEvent(done, total, spec, seconds))

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                # the pool is kept for the executor's lifetime: workers are
                # long-lived engines, so artifacts survive between run() calls
                # (e.g. the analyses shared by successive tables of `repro all`)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=_init_worker,
                    initargs=(self.engine.settings(),),
                )
            return self._pool

    def _drop_pool(self, pool: ProcessPoolExecutor) -> None:
        """Discard a broken ``pool``, unless a concurrent run already replaced it."""
        with self._pool_lock:
            if self._pool is not pool:
                return
            self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    def _run_serial(
        self,
        specs: list[CaseSpec],
        on_result: Optional[Callable[[int, CaseSpec, CaseResult], None]],
        deadline: Optional[float],
    ) -> list[CaseResult]:
        results: list[CaseResult] = []
        total = len(specs)
        for i, spec in enumerate(specs):
            _time_left(deadline, total - i, total)
            start = time.perf_counter()
            result = self.engine.run_case(spec)
            results.append(result)
            if on_result is not None:
                on_result(i, spec, result)
            self._emit(i + 1, total, spec, time.perf_counter() - start)
        return results

    @staticmethod
    def group_by_analysis(specs: Sequence[CaseSpec]) -> list[list[tuple[int, CaseSpec]]]:
        """Partition (index, spec) pairs into analysis-sharing groups."""
        groups: dict[tuple, list[tuple[int, CaseSpec]]] = {}
        for index, spec in enumerate(specs):
            groups.setdefault(spec.analysis_signature(), []).append((index, spec))
        return list(groups.values())

    def _run_parallel(
        self,
        specs: list[CaseSpec],
        on_result: Optional[Callable[[int, CaseSpec, CaseResult], None]],
        deadline: Optional[float],
    ) -> list[CaseResult]:
        groups = self.group_by_analysis(specs)
        total = len(specs)
        done = 0
        results: list[Optional[CaseResult]] = [None] * total
        rebuilds = 0
        remaining = groups
        while remaining:
            _time_left(deadline, total - done, total)
            pool = self._ensure_pool()
            crash: Optional[BaseException] = None
            futures: dict = {}
            try:
                for group in remaining:
                    futures[pool.submit(_run_group, group)] = group
                pending = set(futures)
                while pending:
                    finished, pending = wait(
                        pending,
                        timeout=_time_left(deadline, total - done, total),
                        return_when=FIRST_COMPLETED,
                    )
                    for future in finished:
                        try:
                            triples = future.result()
                        except BrokenProcessPool as exc:
                            # drain the other futures before recovering: a
                            # dead worker breaks every in-flight future, but
                            # groups that already returned keep their results
                            crash = exc
                            continue
                        for index, result, seconds in triples:
                            results[index] = result
                            done += 1
                            if on_result is not None:
                                on_result(index, specs[index], result)
                            self._emit(done, total, specs[index], seconds)
            except BrokenProcessPool as exc:
                # the pool was already broken at submit time (a worker died
                # between run() calls); recover exactly like a mid-run crash
                crash = exc
                for future in futures:
                    future.cancel()
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
            if crash is None:
                break
            self._drop_pool(pool)
            rebuilds += 1
            if rebuilds > MAX_POOL_REBUILDS:
                raise WorkerCrashError(
                    f"worker pool crashed {rebuilds} times; giving up with "
                    f"{total - done} of {total} case(s) incomplete"
                ) from crash
            # group futures are all-or-nothing: a group either delivered all
            # its results or none, so resubmit exactly the unfinished groups
            remaining = [
                group for group in remaining
                if any(results[index] is None for index, _spec in group)
            ]
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]
