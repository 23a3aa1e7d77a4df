"""Persistent job model and queue for the sweep service.

A *job* is one unit of queued work: a declarative sweep (a
:class:`~repro.specs.SweepSpec` grid and/or explicit
:class:`~repro.pipeline.stage.CaseSpec` values) plus execution policy
(priority, retry budget, timeout).  :class:`JobRecord` tracks it through the
state machine::

    queued ──► running ──► done
      │           │
      └───────────┴──► failed

A failed run is retried while the job stays ``running`` (each retry is
journaled as an attempt).  Every transition is appended to a crash-safe
on-disk journal, a JSON-lines log of :mod:`repro.durable` (appended with
``append_line``, replayed with ``read_lines`` under its torn-tail rule,
compacted with ``atomic_write``).
On startup the journal is replayed: finished jobs come back
``done``/``failed``, and jobs that were ``queued`` or ``running`` when the
previous daemon died are re-queued — a crash never loses a submitted job and
never leaves one stuck in ``running``.
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
import time
import uuid
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.durable import append_line, atomic_write, read_lines, remove_stale_temps
from repro.pipeline.stage import CaseSpec
from repro.serialize import canonical_json, decode_fields
from repro.specs import SweepSpec
from repro.tune.driver import TuneSpec

__all__ = [
    "JOB_STATES",
    "JobStateError",
    "JobSpec",
    "JobRecord",
    "JobJournal",
    "JobQueue",
    "new_job_id",
]

#: the job lifecycle states, in rough chronological order.
JOB_STATES = ("queued", "running", "done", "failed")

#: legal state transitions (crash recovery re-queues a ``running`` job at
#: replay, before any transition is taken).
_TRANSITIONS: dict[str, frozenset[str]] = {
    "queued": frozenset({"running", "failed"}),
    "running": frozenset({"done", "failed"}),
    "done": frozenset(),
    "failed": frozenset(),
}


class JobStateError(RuntimeError):
    """An illegal job state transition (e.g. finishing a job twice)."""


def new_job_id() -> str:
    """A short, collision-safe job identifier (12 hex chars)."""
    return uuid.uuid4().hex[:12]


# --------------------------------------------------------------------------- #
# the job spec: what to run, and how hard to try
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class JobSpec:
    """Declarative description of one queued job (JSON round-trippable).

    Two job kinds share this spec: *sweep* jobs (``sweep`` and/or ``cases``
    — :meth:`expand` concatenates the grid expansion with the explicit
    cases, in that order) and *tune* jobs (``tune``, a full
    :class:`~repro.tune.driver.TuneSpec`, exclusive with the other two —
    executed by the daemon through a :class:`~repro.tune.driver.Tuner`).
    ``max_attempts`` bounds the retry-with-backoff loop of each shard;
    ``timeout_s`` is a wall-clock deadline for the whole job.
    """

    sweep: Optional[SweepSpec] = None
    cases: tuple[CaseSpec, ...] = ()
    tune: Optional[TuneSpec] = None
    priority: int = 0
    max_attempts: int = 3
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.tune is not None:
            if self.sweep is not None or self.cases:
                raise ValueError(
                    "a tune job is exclusive: it cannot also carry a sweep grid "
                    "or explicit cases"
                )
        elif self.sweep is None and not self.cases:
            raise ValueError("JobSpec needs a sweep grid, explicit cases, or a tune spec")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        object.__setattr__(self, "cases", tuple(self.cases))

    def expand(self) -> list[CaseSpec]:
        """Every *explicit* case of this job, grid expansion first.

        Tune jobs expand to nothing here — their cases are chosen by the
        searcher at run time; :meth:`total_cases` still bounds them.
        """
        out: list[CaseSpec] = []
        if self.sweep is not None:
            out.extend(self.sweep.expand())
        out.extend(self.cases)
        return out

    def total_cases(self) -> int:
        """Progress denominator: grid size, or the searcher's planned budget."""
        if self.tune is not None:
            return self.tune.planned_evaluations()
        return len(self.expand())

    def to_dict(self) -> dict[str, object]:
        data: dict[str, object] = {
            "priority": self.priority,
            "max_attempts": self.max_attempts,
            "timeout_s": self.timeout_s,
        }
        if self.sweep is not None:
            data["sweep"] = self.sweep.to_dict()
        if self.cases:
            data["cases"] = [case.to_dict() for case in self.cases]
        if self.tune is not None:
            data["tune"] = self.tune.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JobSpec":
        known = {"sweep", "cases", "tune", "priority", "max_attempts", "timeout_s"}
        data = decode_fields("job_spec", data, known, label="JobSpec", strict=True)
        sweep = data.get("sweep")
        cases = data.get("cases") or ()
        tune = data.get("tune")
        if not isinstance(cases, Sequence) or isinstance(cases, (str, bytes)):
            raise ValueError(f"JobSpec cases must be a list of case dicts, got {cases!r}")
        return cls(
            sweep=SweepSpec.from_dict(sweep) if sweep is not None else None,
            cases=tuple(CaseSpec.from_dict(case) for case in cases),
            tune=TuneSpec.from_dict(tune) if tune is not None else None,  # type: ignore[arg-type]
            priority=int(data.get("priority", 0)),
            max_attempts=int(data.get("max_attempts", 3)),
            timeout_s=(None if data.get("timeout_s") is None else float(data["timeout_s"])),  # type: ignore[arg-type]
        )


# --------------------------------------------------------------------------- #
# the job record: one job's observable state
# --------------------------------------------------------------------------- #
@dataclass
class JobRecord:
    """One job as seen by the queue, the journal and the HTTP API."""

    id: str
    spec: JobSpec
    state: str = "queued"
    created_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    error: Optional[str] = None
    done: int = 0
    total: int = 0
    shards_done: int = 0
    shards_total: int = 0
    result_keys: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, object]:
        return {
            "id": self.id,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "error": self.error,
            "done": self.done,
            "total": self.total,
            "shards_done": self.shards_done,
            "shards_total": self.shards_total,
            "result_keys": list(self.result_keys),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JobRecord":
        # tolerant: a journal written by a newer daemon (extra bookkeeping
        # fields) still replays on this build
        known = {f.name for f in fields(cls)}
        payload = decode_fields("job_record", data, known, label="JobRecord")
        payload["spec"] = JobSpec.from_dict(payload["spec"])  # type: ignore[arg-type]
        payload["result_keys"] = list(payload.get("result_keys") or ())
        record = cls(**payload)  # type: ignore[arg-type]
        if record.state not in JOB_STATES:
            raise ValueError(f"unknown job state {record.state!r}; expected one of {JOB_STATES}")
        return record


# --------------------------------------------------------------------------- #
# the journal: crash-safe persistence
# --------------------------------------------------------------------------- #
class JobJournal:
    """Append-only JSON-lines journal of job submissions and transitions.

    Two record shapes::

        {"op": "submit", "job": {...full JobRecord...}}
        {"op": "update", "id": "...", ...changed fields...}

    Appends go through :func:`repro.durable.append_line` under a lock
    (``fsync``-ed unless ``fsync=False``), and replay skips a torn trailing
    line by :mod:`repro.durable`'s torn-tail rule, so a crash mid-append
    loses only the record it interrupted.  :meth:`compact` rewrites the
    journal as one ``submit`` per live job via an atomic replace, bounding
    replay cost for long-lived daemons.
    """

    def __init__(self, path: str | os.PathLike, *, fsync: bool = True) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        remove_stale_temps(self.path.parent)  # the temp files of a killed compaction
        self.fsync = bool(fsync)
        self._lock = threading.Lock()

    def append(self, record: Mapping[str, object]) -> None:
        with self._lock:
            append_line(self.path, record, fsync=self.fsync)

    def replay(self) -> dict[str, JobRecord]:
        """Rebuild the job table from the journal (missing file = empty)."""
        records: dict[str, JobRecord] = {}
        events, _ = read_lines(self.path)
        for event in events:
            op = event.get("op")
            if op == "submit":
                record = JobRecord.from_dict(event["job"])
                records[record.id] = record
            elif op == "update":
                record = records.get(event.get("id", ""))
                if record is None:
                    continue  # update for a compacted-away/unknown job
                for key, value in event.items():
                    if key in ("op", "id"):
                        continue
                    if key == "result_keys_extend":
                        record.result_keys.extend(value)
                    elif hasattr(record, key):
                        setattr(record, key, value)
        return records

    def compact(self, records: Iterable[JobRecord]) -> None:
        """Atomically rewrite the journal as one submit line per record."""
        data = b"".join(canonical_json({"op": "submit", "job": r.to_dict()}) for r in records)
        with self._lock:
            atomic_write(self.path, data, fsync=self.fsync)


# --------------------------------------------------------------------------- #
# the queue: thread-safe dispatch with priorities
# --------------------------------------------------------------------------- #
class JobQueue:
    """Thread-safe priority queue of jobs, optionally journal-backed.

    Producers call :meth:`submit`; worker threads call :meth:`claim` (which
    blocks until a job is available and atomically moves it to ``running``)
    and then exactly one of :meth:`finish` or :meth:`fail`.
    Transitions are validated against the state machine and journaled before
    they are observable through :meth:`get` — a reader never sees a state
    the journal could lose.
    """

    def __init__(
        self,
        journal_path: str | os.PathLike | None = None,
        *,
        fsync: bool = True,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self._clock = clock
        self._records: dict[str, JobRecord] = {}
        self._heap: list[tuple[int, int, str]] = []  # (-priority, seq, id)
        self._seq = itertools.count()
        self._cond = threading.Condition()
        self.journal = JobJournal(journal_path, fsync=fsync) if journal_path else None
        self.recovered = 0
        if self.journal is not None:
            self._records = self.journal.replay()
            for record in self._records.values():
                if record.state == "running":
                    # the previous daemon died mid-job: the work is
                    # re-runnable by construction (results are cached by
                    # content key), so put it back in line from the start.
                    # The compaction below journals the reset.
                    record.state = "queued"
                    record.started_at = None
                    record.done = record.shards_done = 0
                    record.result_keys = []
                    self.recovered += 1
                if record.state == "queued":
                    heapq.heappush(
                        self._heap, (-record.spec.priority, next(self._seq), record.id)
                    )
            self.journal.compact(self._records.values())

    # ------------------------------------------------------------------ #
    def _journal_update(self, record: JobRecord, **fields: object) -> None:
        if self.journal is not None:
            self.journal.append({"op": "update", "id": record.id, **fields})

    def submit(self, spec: JobSpec, *, job_id: str | None = None) -> JobRecord:
        record = JobRecord(
            id=job_id or new_job_id(),
            spec=spec,
            state="queued",
            created_at=self._clock(),
            total=spec.total_cases(),
        )
        with self._cond:
            if record.id in self._records:
                raise ValueError(f"duplicate job id {record.id!r}")
            if self.journal is not None:
                self.journal.append({"op": "submit", "job": record.to_dict()})
            self._records[record.id] = record
            heapq.heappush(self._heap, (-spec.priority, next(self._seq), record.id))
            self._cond.notify()
        return record

    def claim(self, timeout: float | None = None) -> Optional[JobRecord]:
        """Pop the highest-priority queued job and mark it ``running``.

        Blocks for up to ``timeout`` seconds (forever when ``None``); returns
        ``None`` on timeout so worker loops can poll their stop flag.
        """
        with self._cond:
            deadline = None if timeout is None else time.monotonic() + timeout
            while True:
                while self._heap:
                    _, _, job_id = heapq.heappop(self._heap)
                    record = self._records.get(job_id)
                    if record is not None and record.state == "queued":
                        self._transition(record, "running", started_at=self._clock())
                        return record
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        return None

    def _transition(self, record: JobRecord, state: str, **fields: object) -> None:
        # caller holds self._cond
        if state not in JOB_STATES:
            raise JobStateError(f"unknown job state {state!r}")
        if state not in _TRANSITIONS[record.state]:
            raise JobStateError(
                f"job {record.id}: illegal transition {record.state!r} → {state!r}"
            )
        self._journal_update(record, state=state, **fields)
        record.state = state
        for key, value in fields.items():
            setattr(record, key, value)

    def finish(self, job_id: str, *, result_keys: Sequence[str] = ()) -> JobRecord:
        with self._cond:
            record = self._require(job_id)
            record.result_keys.extend(result_keys)
            record.done = record.total
            self._transition(
                record,
                "done",
                finished_at=self._clock(),
                done=record.done,
                result_keys=list(record.result_keys),
            )
            return record

    def fail(self, job_id: str, error: str) -> JobRecord:
        with self._cond:
            record = self._require(job_id)
            self._transition(record, "failed", finished_at=self._clock(), error=error)
            return record

    def record_attempt(self, job_id: str, *, error: str | None = None) -> None:
        """Count one failed run of a job (journaled, state unchanged)."""
        with self._cond:
            record = self._require(job_id)
            record.attempts += 1
            if error is not None:
                record.error = error
            self._journal_update(record, attempts=record.attempts, error=record.error)

    def progress(self, job_id: str, *, done: int, shards_done: int, result_keys: Sequence[str] = ()) -> None:
        with self._cond:
            record = self._require(job_id)
            record.done = int(done)
            record.shards_done = int(shards_done)
            record.result_keys.extend(result_keys)
            self._journal_update(
                record,
                done=record.done,
                shards_done=record.shards_done,
                result_keys_extend=list(result_keys),
            )

    def set_shards(self, job_id: str, shards_total: int) -> None:
        with self._cond:
            record = self._require(job_id)
            record.shards_total = int(shards_total)
            self._journal_update(record, shards_total=record.shards_total)

    # ------------------------------------------------------------------ #
    def _require(self, job_id: str) -> JobRecord:
        record = self._records.get(job_id)
        if record is None:
            raise KeyError(job_id)
        return record

    def get(self, job_id: str) -> JobRecord:
        """A snapshot copy of one job (safe to serialize without the lock)."""
        with self._cond:
            record = self._require(job_id)
            return replace(record, result_keys=list(record.result_keys))

    def list(self) -> list[JobRecord]:
        """Snapshot copies of every job, most recent submission first."""
        with self._cond:
            return [
                replace(r, result_keys=list(r.result_keys))
                for r in sorted(
                    self._records.values(), key=lambda r: r.created_at, reverse=True
                )
            ]

    def counts(self) -> dict[str, int]:
        with self._cond:
            out = {state: 0 for state in JOB_STATES}
            for record in self._records.values():
                out[record.state] += 1
            return out

    def wake(self) -> None:
        """Wake every blocked :meth:`claim` (used by daemon shutdown)."""
        with self._cond:
            self._cond.notify_all()

    def __len__(self) -> int:
        with self._cond:
            return len(self._records)
