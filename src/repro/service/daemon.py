"""The long-lived sweep service: queue, result store, one session.

:class:`SweepService` is the daemon behind ``repro serve``.  It owns

* a journal-backed :class:`~repro.service.jobs.JobQueue` (crash-safe, see
  that module),
* worker thread(s) that claim jobs and run each sweep job through
  :meth:`Session.run_stored` — the store-backed sweep behind
  ``Session.sweep(store=...)`` — with retry-with-backoff over the whole run
  and a per-job wall-clock deadline,
* a :class:`~repro.results.ResultStore` of finished case results keyed by
  canonical case parameters (:func:`~repro.results.case_key_for`) — every
  ``GET /result`` query looks there first, and ``GET /results`` lists it,
* one :class:`~repro.session.Session` (``jobs`` wide) whose one executor
  runs sweep, tune and table work, and whose engine answers store-missing
  queries inline (the engine takes turns per case, so HTTP threads and job
  workers never race it).

The engine's ``stage_runs`` counters are exposed through :meth:`stats`;
they only move when a pipeline stage actually computes, which is how the
tests (and the acceptance criteria) prove that a repeated query was served
from the store rather than re-executed.
"""

from __future__ import annotations

import os
import re
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.pipeline.executor import SweepExecutor
from repro.pipeline.stage import CaseSpec
from repro.pipeline.store import DiskStore, content_key
from repro.results import ResultStore, case_key_for
from repro.service.jobs import JobQueue, JobRecord, JobSpec
from repro.ordering import ORDERINGS
from repro.scheduling import STRATEGIES
from repro.session import Session
from repro.specs import parse_spec

__all__ = [
    "QueryOutcome",
    "QueueSaturated",
    "SweepService",
    "case_spec_from_query",
]


class QueueSaturated(RuntimeError):
    """The job queue is at its ``max_pending`` depth; resubmit later.

    The HTTP layer maps this to ``503`` with a ``Retry-After`` header, so
    well-behaved clients back off instead of growing the journal without
    bound while the workers are behind.
    """

    def __init__(self, message: str, *, retry_after: float = 5.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after

#: schema version of the stored *table* payloads; bump to invalidate them all.
_RESULT_VERSION = "1"


def _query_bool(params: Mapping[str, str], name: str, default: Optional[bool] = None) -> Optional[bool]:
    """A boolean query parameter (``1/true/yes/on`` or ``0/false/no/off``); ``default`` when absent."""
    raw = params.get(name)
    if raw is None:
        return default
    lowered = str(raw).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"query parameter {name!r} expects a boolean, got {raw!r}")


def _query_number(params: Mapping[str, str], name: str, caster, default=None):
    """A numeric query parameter parsed by ``caster``; ``default`` when absent or blank."""
    raw = params.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return caster(raw)
    except ValueError:
        raise ValueError(f"query parameter {name!r} expects {caster.__name__}, got {raw!r}") from None


def case_spec_from_query(params: Mapping[str, str]) -> CaseSpec:
    """Build a canonical :class:`CaseSpec` from raw (string) query params.

    Raises ``ValueError`` with a client-presentable message on bad input.
    """
    known = {"problem", "ordering", "strategy", "split", "nprocs", "scale", "split_threshold"}
    unknown = set(params) - known - {"compute"}
    if unknown:
        raise ValueError(f"unknown query parameter(s) {sorted(unknown)}; expected {sorted(known)}")
    problem = params.get("problem", "").strip()
    if not problem:
        raise ValueError("missing required query parameter 'problem'")

    return CaseSpec(
        problem=problem.upper(),
        ordering=str(parse_spec(params.get("ordering", "metis"))),
        strategy=str(parse_spec(params.get("strategy", "memory-full"))),
        split=_query_bool(params, "split", False),
        nprocs=_query_number(params, "nprocs", int),
        scale=_query_number(params, "scale", float),
        split_threshold=_query_number(params, "split_threshold", int),
    )


def _names_same_case(registry, spec: str):
    """Predicate on stored spellings: does one canonicalise like ``spec``?"""
    wanted = registry.canonical(spec)

    def match(stored: str) -> bool:
        try:
            return registry.canonical(stored) == wanted
        except ValueError:  # a spelling this build no longer registers
            return False

    return match


@dataclass
class QueryOutcome:
    """One answered result query: the payload, its key, and how it was served."""

    key: str
    payload: dict[str, object]
    cached: bool


class SweepService:
    """The daemon: job queue + one session + shared result store.

    Parameters
    ----------
    data_dir:
        Service state directory; holds ``journal.jsonl`` (the job journal),
        ``store/`` (the result store) and ``tables/`` (computed tables).
    nprocs / scale / artifact_cache_dir:
        Engine defaults, as for :class:`~repro.session.Session`
        (``artifact_cache_dir=""`` keeps the artifact disk tier off).
    jobs:
        Execution width of the daemon's session: ``1`` runs every case
        in-process on the query engine, ``> 1`` on one long-lived process
        pool shared by every job worker (sweep, tune and table work).
    workers:
        Job worker threads draining the queue (each runs one job at a time).
    retry_base_delay:
        First retry backoff in seconds (doubles per attempt).
    journal_fsync:
        ``False`` trades crash-safety for faster job turnover (tests, CI).
    max_pending:
        Backpressure bound on the queue depth: a submission arriving while
        ``queued >= max_pending`` raises :class:`QueueSaturated` (HTTP 503
        with ``Retry-After``).  ``None`` (the default) never rejects.
    """

    def __init__(
        self,
        *,
        data_dir: str | os.PathLike,
        nprocs: int = 32,
        scale: float = 1.0,
        artifact_cache_dir: str | os.PathLike | None = "",
        jobs: int = 1,
        workers: int = 1,
        retry_base_delay: float = 0.1,
        journal_fsync: bool = True,
        max_pending: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.session = Session(nprocs=nprocs, scale=scale, cache_dir=artifact_cache_dir, jobs=jobs)
        self.engine = self.session.engine
        self.queue = JobQueue(self.data_dir / "journal.jsonl", fsync=journal_fsync)
        # the columnar store behind GET /result and GET /results: every
        # finished case — sweep job or inline query — is sealed here
        self.results = ResultStore(self.data_dir / "store", fsync=journal_fsync)
        self.tables = DiskStore(self.data_dir / "tables", durable=True)
        self.workers = workers
        self.max_pending = max_pending
        self.retry_base_delay = retry_base_delay
        self.started_at = time.time()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "SweepService":
        """Start the job worker threads (idempotent)."""
        if self._threads:
            return self
        self._stop.clear()
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-sweep-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, *, timeout: float = 30.0) -> None:
        """Stop the workers and release the engine and its pool (idempotent)."""
        self._stop.set()
        self.queue.wake()
        threads, self._threads = self._threads, []
        for thread in threads:
            thread.join(timeout=timeout)
        self.session.close()

    def __enter__(self) -> "SweepService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # submission and queries (HTTP-facing)
    # ------------------------------------------------------------------ #
    def queue_depth(self) -> int:
        """Jobs waiting to be claimed (the backpressure signal)."""
        return int(self.queue.counts()["queued"])

    def saturated(self) -> bool:
        """Whether a submission arriving now would be rejected."""
        return self.max_pending is not None and self.queue_depth() >= self.max_pending

    def submit(self, spec: JobSpec | Mapping[str, object]) -> JobRecord:
        if not isinstance(spec, JobSpec):
            spec = JobSpec.from_dict(spec)
        # validate the spec *before* the saturation check: a malformed
        # submission should always say 400, not sometimes 503
        if self.saturated():
            raise QueueSaturated(
                f"job queue is saturated ({self.queue_depth()} queued >= "
                f"max_pending={self.max_pending}); retry later"
            )
        return self.queue.submit(spec)

    def query(self, params: Mapping[str, str], *, compute: bool = True) -> QueryOutcome:
        """Answer one result query from the result store, computing on a miss.

        On a hit the engine is never touched.  An index miss first refreshes
        the store once, so a result sealed by a sibling daemon sharing the
        data dir is still a hit.  On a real miss the case runs inline on the
        engine and is sealed into the store before the response —
        so the *next* identical query, from any thread, is a hit.  Raises
        ``KeyError`` when ``compute=False`` and the result is absent.
        """
        spec = case_spec_from_query(params)
        key = case_key_for(self.engine, spec)
        if key not in self.results:
            self.results.refresh()
        try:
            return QueryOutcome(key=key, payload=self.results.get(key).to_dict(), cached=True)
        except KeyError:
            if not compute:
                raise
        result = self.engine.run_case(spec)
        self.results.seal([key], [result])
        return QueryOutcome(key=key, payload=result.to_dict(), cached=False)

    #: every query parameter GET /results (the list form) understands.
    LIST_PARAMS = ("problem", "ordering", "strategy", "split", "nprocs", "limit", "cursor", "fields")
    #: pagination bounds of the list endpoint.
    DEFAULT_PAGE = 50
    MAX_PAGE = 500

    def list_results(self, params: Mapping[str, str]) -> dict[str, object]:
        """Answer one paginated ``GET /results`` listing from the columnar store.

        Filters (``problem``/``ordering``/``strategy``/``split``/``nprocs``)
        are evaluated on the store's columns; an ``ordering`` or ``strategy``
        filter matches every stored spelling with its canonical form
        (``hybrid`` lists rows stored as ``hybrid(alpha=0.5)``).  Rows come
        back in the canonical total order (see :meth:`ResultTable.sort_index`)
        so the same store state always yields byte-identical pages.  ``limit``/``cursor`` paginate;
        ``fields`` projects each row onto a comma-separated subset.  The
        payload carries a ready-made ``next`` link (or ``None`` on the last
        page).  Raises ``ValueError`` with a client-presentable message on
        bad input.
        """
        unknown = set(params) - set(self.LIST_PARAMS)
        if unknown:
            raise ValueError(
                f"unknown query parameter(s) {sorted(unknown)}; expected {sorted(self.LIST_PARAMS)}"
            )

        limit = _query_number(params, "limit", int, self.DEFAULT_PAGE)
        if not 1 <= limit <= self.MAX_PAGE:
            raise ValueError(f"limit must be in [1, {self.MAX_PAGE}], got {limit}")
        cursor = _query_number(params, "cursor", int, 0)
        if cursor < 0:
            raise ValueError(f"cursor must be >= 0, got {cursor}")
        fields = None
        if params.get("fields"):
            fields = [f.strip() for f in str(params["fields"]).split(",") if f.strip()]

        filters: dict[str, object] = {}
        if params.get("problem"):
            filters["problem"] = str(params["problem"]).strip().upper()
        for name, registry in (("ordering", ORDERINGS), ("strategy", STRATEGIES)):
            if params.get(name):
                filters[name] = _names_same_case(registry, str(params[name]))
        split = _query_bool(params, "split")
        if split is not None:
            filters["split"] = split
        if params.get("nprocs"):
            filters["nprocs"] = _query_number(params, "nprocs", int, 0)

        self.results.refresh()
        table = self.results.table()
        if filters:
            table = table.filter(**filters)
        table = table.sorted()
        total = len(table)
        stop = min(cursor + limit, total)
        page = table.take(np.arange(cursor, stop, dtype=np.int64))
        rows = page.to_dicts(fields=fields)

        def _link(next_cursor: int) -> str:
            from urllib.parse import urlencode

            query: dict[str, object] = {
                name: params[name] for name in ("problem", "ordering", "strategy", "split", "nprocs")
                if params.get(name)
            }
            query["limit"] = limit
            query["cursor"] = next_cursor
            if fields:
                query["fields"] = ",".join(fields)
            return "/results?" + urlencode(sorted(query.items()))

        return {
            "results": rows,
            "count": len(rows),
            "total": total,
            "cursor": cursor,
            "limit": limit,
            "next": _link(stop) if stop < total else None,
        }

    def table(self, name: str, *, problems: Sequence[str] = (), orderings: Sequence[str] = ()) -> QueryOutcome:
        """One of the paper's tables, from the tables store or computed on a miss."""
        from repro.experiments.tables import ALL_TABLES

        entry = ALL_TABLES.entry(name)  # raises ValueError (with did-you-mean) on a miss
        kwargs: dict[str, object] = {}
        if problems:
            if "problems" not in entry.params:
                raise ValueError(f"table {name!r} does not accept a problem subset")
            kwargs["problems"] = [p.upper() for p in problems]
        if orderings:
            if "orderings" not in entry.params:
                raise ValueError(f"table {name!r} does not accept an ordering subset")
            kwargs["orderings"] = [str(parse_spec(o)) for o in orderings]
        key = content_key(
            "table",
            _RESULT_VERSION,
            {
                "name": name,
                "nprocs": self.engine.nprocs,
                "scale": self.engine.scale,
                **{k: tuple(v) for k, v in kwargs.items()},  # type: ignore[arg-type]
            },
        )
        try:
            return QueryOutcome(key=key, payload=self.tables.get(key), cached=True)  # type: ignore[arg-type]
        except KeyError:
            pass
        rows = entry.value(self.session, **kwargs)
        payload = {"table": name, "rows": rows}
        self.tables.put(key, payload)
        return QueryOutcome(key=key, payload=payload, cached=False)

    def stats(self) -> dict[str, object]:
        """The ``/healthz`` payload: liveness, queue, store and engine counters."""
        return {
            "status": "ok",
            "uptime_s": time.time() - self.started_at,
            "engine": {
                "nprocs": self.engine.nprocs,
                "scale": self.engine.scale,
                "artifact_cache_dir": self.engine.cache_dir,
            },
            "execution": {"jobs": self.session.jobs, "workers": self.workers},
            "jobs": self.queue.counts(),
            "queue_depth": self.queue_depth(),
            "saturated": self.saturated(),
            "max_pending": self.max_pending,
            "recovered_jobs": self.queue.recovered,
            "results": self.results.stats(),
            "stage_runs": dict(self.engine.stage_runs),
        }

    # ------------------------------------------------------------------ #
    # job execution (worker threads)
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            record = self.queue.claim(timeout=0.2)
            if record is None:
                continue
            try:
                self._execute(record)
            except Exception:  # pragma: no cover - defensive: _execute reports
                try:
                    self.queue.fail(record.id, traceback.format_exc(limit=3))
                except Exception:
                    pass

    def _execute(self, record: JobRecord) -> None:
        spec = record.spec
        deadline = None if spec.timeout_s is None else time.monotonic() + spec.timeout_s
        try:
            if spec.tune is not None:
                self._execute_tune(record, deadline)
            else:
                self._execute_sweep(record, deadline)
        except TimeoutError as exc:
            self.queue.fail(record.id, f"timeout: {exc}")
        except Exception as exc:
            self.queue.fail(record.id, f"{type(exc).__name__}: {exc}")

    def _execute_sweep(self, record: JobRecord, deadline: Optional[float]) -> None:
        """Run one sweep job through :meth:`Session.run_stored`, with retries.

        Each analysis group is one shard: its ``progress`` journal line is
        written only once its batch is durable.  A failed run is retried with
        exponential backoff up to ``max_attempts`` runs in all; a retry (like
        a resubmitted or crash-recovered job) reruns only the keys the store
        lacks, and journals no shard twice.
        """
        specs = record.spec.expand()
        journaled: set[tuple[str, ...]] = set()
        done = 0

        def on_seal(keys: list[str]) -> None:
            nonlocal done
            if tuple(keys) in journaled:
                return
            journaled.add(tuple(keys))
            done += len(keys)
            self.queue.progress(
                record.id, done=done, shards_done=len(journaled), result_keys=keys
            )

        self.queue.set_shards(record.id, len(SweepExecutor.group_by_analysis(specs)))
        delay = self.retry_base_delay
        for attempt in range(1, record.spec.max_attempts + 1):
            try:
                self.session.run_stored(specs, self.results, deadline=deadline, on_seal=on_seal)
                break
            except TimeoutError:
                raise
            except Exception as exc:
                if attempt == record.spec.max_attempts:
                    raise
                self.queue.record_attempt(
                    record.id, error=f"attempt {attempt}: {type(exc).__name__}: {exc}"
                )
                # exponential backoff, interruptible by shutdown
                if self._stop.wait(delay):
                    raise
                delay *= 2
        self.queue.finish(record.id)

    def _execute_tune(self, record: JobRecord, deadline: Optional[float]) -> None:
        """Run one tune job on the daemon's session (and so on its pool).

        Every rung evaluation is memoized in the shared ``tune-store``, so a
        re-submitted (or daemon-crash-recovered) tune job recomputes only the
        cases the store is missing.  The finished leaderboard is persisted
        under ``leaderboards/<job_id>.json`` (plus ``latest.json``) next to
        the store, and the job record carries its path as a result key.
        """
        from repro.tune.driver import Tuner

        tune_spec = record.spec.tune
        assert tune_spec is not None

        def progress(done: int, total: int) -> None:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job deadline elapsed mid-tune after {done}/{total} case "
                    f"evaluations ({record.spec.timeout_s:.1f}s)"
                )
            self.queue.progress(record.id, done=done, shards_done=0)

        board = Tuner(
            self.session,
            tune_spec,
            store=self.data_dir / "tune-store",
            progress=progress,
        ).run()
        path = board.save(self.leaderboard_dir / f"{record.id}.json")
        board.save(self.leaderboard_dir / "latest.json")
        self.queue.finish(record.id, result_keys=[str(path)])

    @property
    def leaderboard_dir(self) -> Path:
        return self.data_dir / "leaderboards"

    def leaderboard(self, job_id: Optional[str] = None) -> dict[str, object]:
        """The persisted leaderboard payload of one tune job (or the latest).

        Raises ``KeyError`` when no tune job has produced one yet (the HTTP
        layer maps this to 404).
        """
        from repro.tune.leaderboard import Leaderboard

        if job_id is not None and not re.fullmatch(r"[A-Za-z0-9_.\-]+", job_id):
            raise ValueError(f"bad leaderboard job id {job_id!r}")
        path = self.leaderboard_dir / (f"{job_id}.json" if job_id else "latest.json")
        try:
            return Leaderboard.load(path).to_dict()
        except FileNotFoundError:
            raise KeyError(
                f"no leaderboard for job {job_id!r}" if job_id else "no leaderboard yet"
            ) from None
