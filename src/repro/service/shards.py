"""Sharded sweep execution behind a multi-host-ready backend interface.

A job's expanded case list is partitioned into *shards* by the cases'
analysis signature (problem, ordering, split, per-case overrides), so every
shard shares one analysis and its memoized scheduling geometry, whether it
runs in-process (:meth:`AnalysisPipeline.run_case` per case) or on a worker
of the long-lived process pool.

:class:`ShardBackend` is the seam for scaling out: it consumes plain
:class:`~repro.pipeline.stage.CaseSpec` values and returns
:class:`~repro.pipeline.stage.CaseResult` values, with the engine described
by the picklable :class:`~repro.pipeline.engine.PipelineSettings` — exactly
the payload a multi-host backend would ship over the wire.  Two local
implementations are provided; a remote one only has to implement
:meth:`run_shard`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Optional, Sequence

from repro.pipeline.engine import AnalysisPipeline
from repro.pipeline.executor import WorkerCrashError, _init_worker, _run_group
from repro.pipeline.stage import CaseResult, CaseSpec

__all__ = [
    "ShardTimeout",
    "WorkerCrashError",
    "partition_shards",
    "ShardBackend",
    "InlineShardBackend",
    "ProcessShardBackend",
]


class ShardTimeout(TimeoutError):
    """A shard exceeded the job's wall-clock deadline."""


def partition_shards(
    specs: Sequence[CaseSpec], *, max_shard_size: Optional[int] = None
) -> list[list[tuple[int, CaseSpec]]]:
    """Partition ``(index, spec)`` pairs into analysis-sharing shards.

    Cases are grouped by :meth:`CaseSpec.analysis_signature` (the
    mapping/geometry key), preserving first-seen group order and in-group
    input order; groups larger than ``max_shard_size`` are chunked.  The
    indices let the caller reassemble results in input order whatever the
    execution order was.
    """
    if max_shard_size is not None and max_shard_size < 1:
        raise ValueError(f"max_shard_size must be >= 1, got {max_shard_size}")
    groups: dict[tuple, list[tuple[int, CaseSpec]]] = {}
    for index, spec in enumerate(specs):
        groups.setdefault(spec.analysis_signature(), []).append((index, spec))
    shards: list[list[tuple[int, CaseSpec]]] = []
    for group in groups.values():
        if max_shard_size is None:
            shards.append(group)
        else:
            shards.extend(
                group[i : i + max_shard_size] for i in range(0, len(group), max_shard_size)
            )
    return shards


class ShardBackend(ABC):
    """Execute one shard of cases; the seam for multi-host scale-out."""

    @abstractmethod
    def run_shard(
        self, specs: Sequence[CaseSpec], *, timeout_s: Optional[float] = None
    ) -> list[CaseResult]:
        """Run ``specs`` and return their results in input order.

        ``timeout_s`` is a best-effort wall-clock bound; backends that can
        observe it raise :class:`ShardTimeout` when it elapses.
        """

    def close(self) -> None:
        """Release backend resources (idempotent)."""


class InlineShardBackend(ShardBackend):
    """Run shards in-process, one :meth:`AnalysisPipeline.run_case` per case.

    The fastest option when the daemon owns the only engine.  ``timeout_s``
    cannot preempt in-process work; the daemon checks the deadline between
    shards.
    """

    def __init__(self, engine: AnalysisPipeline) -> None:
        self.engine = engine

    def run_shard(
        self, specs: Sequence[CaseSpec], *, timeout_s: Optional[float] = None
    ) -> list[CaseResult]:
        return [self.engine.run_case(spec) for spec in specs]


class ProcessShardBackend(ShardBackend):
    """Run shards on a long-lived process pool (one engine per worker).

    Workers are initialised once from the engine's picklable settings and
    keep their artifact stores across shards — the same discipline as the
    sweep executor.  ``timeout_s`` is enforced via the future: on expiry the
    shard is abandoned (the worker finishes in the background; its results
    simply go unused) and :class:`ShardTimeout` is raised.
    """

    def __init__(self, engine: AnalysisPipeline, *, jobs: int = 2) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.engine = engine
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(self.engine.settings(),),
            )
        return self._pool

    def run_shard(
        self, specs: Sequence[CaseSpec], *, timeout_s: Optional[float] = None
    ) -> list[CaseResult]:
        try:
            future = self._ensure_pool().submit(_run_group, list(enumerate(specs)))
            triples = future.result(timeout=timeout_s)
        except FutureTimeoutError:
            future.cancel()
            raise ShardTimeout(
                f"shard of {len(specs)} case(s) exceeded {timeout_s:.1f}s"
            ) from None
        except BrokenProcessPool as exc:
            # a worker died (OOM-kill, SIGKILL, hard crash): drop the dead
            # pool so the next attempt starts a fresh one, and surface the
            # shard as a retryable failure — the daemon's retry loop counts
            # it toward the job's max_attempts like any other shard error
            self.close()
            raise WorkerCrashError(
                f"worker process died while running a shard of {len(specs)} case(s)"
            ) from exc
        results: list[Optional[CaseResult]] = [None] * len(specs)
        for index, result, _seconds in triples:
            results[index] = result
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
