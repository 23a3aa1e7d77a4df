"""The append-only :class:`ResultStore`: durable, resumable, shareable.

Layout of a store directory::

    store/
      manifest.jsonl          # the store: one JSON line per sealed batch (append-only)
      traces/trace-<key>.npz  # optional delta-encoded SimulationTraces

A sealed batch is one ``{"op": "rows", "key_version": ..., ...}`` record
carrying the batch's columns (:meth:`ResultTable.to_record`) and the
:data:`~repro.results.keys.CASE_KEY_VERSION` its keys were made under,
appended by :func:`repro.durable.append_line` under a lock: one write and,
unless ``fsync=False``, one fsync.  The commit is that single step, so there is
nothing to repair after a crash.  A record cut by a crash mid-append is
skipped on replay by :mod:`repro.durable`'s torn-tail rule; its rows are
lost and recomputed on demand, and every later record replays whole.
Nothing is ever rewritten in place; a crash at any point loses at most the
rows still buffered in a writer, or the batch whose record it cut.

Replay ingests only ``rows`` records stamped with the current key version.
Every other record is skipped and counted in
:attr:`ResultStore.replay_skipped`: a record that does not decode, a
``rows`` record keyed under another version (or unstamped, as written
before keys bound parameter defaults) and a ``segment`` line of the older
segment-file format.  No query can reach rows keyed under another version,
so their cases are recomputed on demand, and new batches are appended to
the same manifest.

One :class:`ResultWriter` per producer (sweep driver, service shard);
concurrent writers, even in different processes sharing the directory,
append whole records to the one manifest, and siblings' batches appear on
:meth:`ResultStore.refresh`.

Reads are indexed and incremental: the store keeps ``key → (batch, row)``
with last-write wins, so :meth:`get`/``in`` are O(1); :meth:`table` caches the
merged, key-deduplicated rows and merges in only the batches ingested since
its last call; :meth:`refresh` reads only the manifest lines appended since
the last read.  Every instance ingests batches in manifest order, so its
table is the manifest-ordered concatenation deduplicated by key.
"""

from __future__ import annotations

import io
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from repro.durable import append_line, atomic_write, read_lines, remove_stale_temps
from repro.pipeline.stage import CaseResult
from repro.results.keys import CASE_KEY_VERSION
from repro.results.table import ResultTable, ResultTableBuilder
from repro.results.traces import decode_trace, encode_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.trace import SimulationTrace

__all__ = ["ResultStore", "ResultWriter"]

_MANIFEST = "manifest.jsonl"


class ResultStore:
    """A directory whose replayable manifest holds every sealed batch of rows.

    Parameters
    ----------
    directory:
        The store directory (created if missing).
    fsync:
        ``True`` (default) makes each sealed batch durable before it is
        acknowledged; ``False`` trades the power-loss guarantee for speed
        (tests, CI, benchmarks).
    """

    def __init__(self, directory: str | os.PathLike, *, fsync: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        remove_stale_temps(self.directory)
        remove_stale_temps(self.directory / "traces")
        self.fsync = bool(fsync)
        self._lock = threading.RLock()
        self._batches = 0  # batches ingested, in manifest order
        self._index: dict[str, tuple[ResultTable, int]] = {}  # key → (batch, row)
        self._manifest_offset = 0  # manifest bytes consumed, up to the last newline
        self._merged = ResultTableBuilder().build()  # the deduplicated rows so far
        self._unmerged: list[ResultTable] = []  # batches ingested since the last merge
        self._default_writer: Optional[ResultWriter] = None
        self.replay_skipped = 0  # manifest records not ingested (undecodable or another key version)
        self.refresh()

    # ------------------------------------------------------------------ #
    # replay and refresh
    # ------------------------------------------------------------------ #
    @property
    def manifest_path(self) -> Path:
        return self.directory / _MANIFEST

    def _read_manifest_tail(
        self, sealed: Optional[tuple[dict[str, object], ResultTable]] = None
    ) -> int:
        """Ingest the batches of manifest lines appended since the last read.

        Only the whole lines past the consumed offset are read, so each
        record is ingested once.  ``sealed`` is a ``(record, table)`` this
        store just appended, so its table is not decoded again.  Returns the
        number of batches ingested.  Caller holds ``self._lock``.
        """
        events, self._manifest_offset = read_lines(
            self.manifest_path, self._manifest_offset, terminated_only=True
        )
        before = self._batches
        for event in events:
            table = sealed[1] if sealed is not None and event == sealed[0] else self._decode(event)
            if table is not None:
                self._ingest(table)
        return self._batches - before

    def _decode(self, event: dict) -> Optional[ResultTable]:
        """The batch of one manifest record, or ``None`` (counted) if it serves none."""
        if event.get("op") == "rows" and event.get("key_version") == CASE_KEY_VERSION:
            try:
                return ResultTable.from_record(event)
            except (ValueError, KeyError, TypeError):
                pass
        # a foreign, undecodable or other-version record must never poison
        # replay; the rows it would have held are recomputed on demand
        self.replay_skipped += 1
        return None

    def _ingest(self, table: ResultTable) -> None:
        """Register one batch and index its keys (caller holds ``self._lock``)."""
        self._batches += 1
        self._unmerged.append(table)
        for row, key in enumerate(table.keys.tolist()):
            if key:
                self._index[key] = (table, row)

    def refresh(self) -> int:
        """Pick up batches sealed by sibling writers; returns how many."""
        with self._lock:
            return self._read_manifest_tail()

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def writer(self, *, flush_every: int = 64) -> "ResultWriter":
        """A streaming writer sealing one batch every ``flush_every`` rows."""
        return ResultWriter(self, flush_every=flush_every)

    def append(self, key: str, result: CaseResult) -> None:
        """Convenience append through a store-owned writer (auto-created).

        The store-owned writer flushes every row, so a plain ``append`` is
        durable immediately; batch producers should hold their own
        :meth:`writer` with a larger ``flush_every`` instead.
        """
        with self._lock:
            if self._default_writer is None:
                self._default_writer = self.writer(flush_every=1)
            writer = self._default_writer
        writer.append(key, result)

    def flush(self) -> None:
        """Seal any rows buffered in the store-owned writer."""
        with self._lock:
            writer = self._default_writer
        if writer is not None:
            writer.flush()

    def _seal(self, table: ResultTable) -> None:
        """Append ``table`` as one manifest record, then ingest the manifest through it.

        Reading the tail (instead of registering the table directly) keeps
        the in-memory batch order equal to the manifest order even when a
        sibling appended lines since the last read.
        """
        record = {"op": "rows", "key_version": CASE_KEY_VERSION, **table.to_record()}
        with self._lock:
            append_line(self.manifest_path, record, fsync=self.fsync)
            self._read_manifest_tail((record, table))

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return str(key) in self._index

    def keys(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._index))

    def get(self, key: str) -> CaseResult:
        """The stored result under ``key`` (raises ``KeyError`` if absent)."""
        with self._lock:
            table, row = self._index[str(key)]
        return table.result(row)

    def table(self) -> ResultTable:
        """Every live row as one table (deduplicated by key, last write wins).

        The table is cached and shared between callers (it is immutable);
        only batches ingested since the previous call are merged into it.
        """
        with self._lock:
            if self._unmerged:
                self._merged = ResultTable.concat([self._merged, *self._unmerged]).dedupe_by_key()
                self._unmerged = []
            return self._merged

    def filter(self, **predicates) -> ResultTable:
        """Columnar predicate filtering over the live rows (see ``ResultTable.filter``)."""
        return self.table().filter(**predicates)

    def stats(self) -> dict[str, object]:
        with self._lock:
            return {
                "rows": len(self._index),
                "segments": self._batches,  # sealed batches (the name predates inline batches)
                "replay_skipped": self.replay_skipped,
            }

    # ------------------------------------------------------------------ #
    # traces
    # ------------------------------------------------------------------ #
    def _trace_path(self, key: str) -> Path:
        return self.directory / "traces" / f"trace-{key}.npz"

    def put_trace(self, key: str, trace: "SimulationTrace") -> None:
        """Persist one case's trace, delta-encoded (atomic, idempotent)."""
        path = self._trace_path(str(key))
        path.parent.mkdir(parents=True, exist_ok=True)
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **encode_trace(trace))
        atomic_write(path, buffer.getvalue(), fsync=self.fsync)

    def has_trace(self, key: str) -> bool:
        return self._trace_path(str(key)).exists()

    def get_trace(self, key: str) -> "SimulationTrace":
        """Load one case's trace (raises ``KeyError`` if absent)."""
        path = self._trace_path(str(key))
        try:
            with np.load(path, allow_pickle=False) as data:
                return decode_trace(data)
        except FileNotFoundError:
            raise KeyError(str(key)) from None


class ResultWriter:
    """Streaming appender: buffers rows, seals a batch per ``flush_every``.

    Thread-safe; use as a context manager so an interrupted sweep still
    seals whatever completed before the exception flew::

        with store.writer() as w:
            for key, result in work:
                w.append(key, result)
    """

    def __init__(self, store: ResultStore, *, flush_every: int = 64) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.store = store
        self.flush_every = int(flush_every)
        self._lock = threading.Lock()
        self._buffer: list[tuple[str, CaseResult]] = []
        self.rows_written = 0

    def append(self, key: str, result: CaseResult) -> None:
        with self._lock:
            self._buffer.append((str(key), result))
            should_flush = len(self._buffer) >= self.flush_every
        if should_flush:
            self.flush()

    def flush(self) -> None:
        """Seal the buffered rows as one batch (no-op when empty)."""
        with self._lock:
            rows, self._buffer = self._buffer, []
        if not rows:
            return
        builder = ResultTableBuilder()
        for key, result in rows:
            builder.append(result, key=key)
        self.store._seal(builder.build())
        self.rows_written += len(rows)

    def close(self) -> None:
        self.flush()

    def __enter__(self) -> "ResultWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        # flush on the error path too: completed cases of an interrupted
        # sweep must be durable — that is the whole point of resumability
        self.close()
