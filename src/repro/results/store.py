"""The append-only :class:`ResultStore`: durable, resumable, shareable.

Layout of a store directory::

    store/
      manifest.jsonl          # one JSON line per sealed segment (append-only)
      seg-<writer>-000000.npz # immutable columnar segments (ResultTable)
      seg-<writer>-000001.npz
      traces/trace-<key>.npz  # optional delta-encoded SimulationTraces

Durability comes from :mod:`repro.durable`: a segment is written with
``atomic_write`` (fsync-ed unless ``fsync=False``) *before* its manifest
line is appended with ``append_line`` under a lock — so a manifest line
implies a complete segment, a torn trailing line is skipped on replay by the
module's torn-tail rule, and a segment file that never got its line (crash
between the two steps) is *adopted* on the next open.  Nothing is ever
rewritten in place; a crash at any point loses at most the rows still
buffered in a writer.

One :class:`ResultWriter` per producer (sweep driver, service shard): each
writer seals its own uniquely named segments, so concurrent writers — even
in different processes sharing the directory — never collide; siblings'
segments appear on :meth:`ResultStore.refresh`.

Reads are indexed and incremental: the store keeps ``key → (segment, row)``
with last-write wins, so :meth:`get`/``in`` are O(1); :meth:`table` caches the
merged, key-deduplicated rows and merges in only the segments ingested since
its last call; :meth:`refresh` reads only the manifest bytes appended since
the last read.  Every instance ingests segments in manifest order, so its
table is the manifest-ordered concatenation deduplicated by key.
"""

from __future__ import annotations

import io
import os
import threading
import uuid
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from repro.durable import append_line, atomic_write, read_lines
from repro.pipeline.stage import CaseResult
from repro.results.table import ResultTable, ResultTableBuilder
from repro.results.traces import decode_trace, encode_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.trace import SimulationTrace

__all__ = ["ResultStore", "ResultWriter"]

_MANIFEST = "manifest.jsonl"
_SEGMENT_PREFIX = "seg-"
_SEGMENT_SUFFIX = ".npz"


class ResultStore:
    """A directory of immutable columnar segments plus a replayable manifest.

    Parameters
    ----------
    directory:
        The store directory (created if missing).
    fsync:
        ``True`` (default) makes each sealed segment and manifest line
        durable before it is acknowledged; ``False`` trades the power-loss
        guarantee for speed (tests, CI, benchmarks).
    """

    def __init__(self, directory: str | os.PathLike, *, fsync: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = bool(fsync)
        self._lock = threading.RLock()
        self._writer_tag = uuid.uuid4().hex[:8]
        self._writer_seq = 0
        self._segments: dict[str, ResultTable] = {}  # filename → table, manifest order
        self._index: dict[str, tuple[str, int]] = {}  # key → (filename, row)
        self._unloadable: set[str] = set()  # segment files that failed to load
        self._manifest_offset = 0  # manifest bytes consumed, up to the last newline
        self._merged = ResultTableBuilder().build()  # the deduplicated rows so far
        self._unmerged: list[ResultTable] = []  # segments ingested since the last merge
        self._default_writer: Optional[ResultWriter] = None
        self.replay_skipped = 0  # unloadable segments seen during replay
        self._replay()

    # ------------------------------------------------------------------ #
    # replay and refresh
    # ------------------------------------------------------------------ #
    @property
    def manifest_path(self) -> Path:
        return self.directory / _MANIFEST

    def _read_manifest_tail(self, pending: Optional[dict[str, ResultTable]] = None) -> None:
        """Ingest the segments named by manifest lines appended since the last read.

        Only the bytes past the consumed offset are read, by
        :func:`repro.durable.read_lines` (an unterminated last line is read
        again until a later append terminates it).  ``pending`` holds tables
        this store already has in memory, by filename.  Caller holds
        ``self._lock``.
        """
        events, self._manifest_offset = read_lines(self.manifest_path, self._manifest_offset)
        for event in events:
            # a torn line is skipped: the segment it described is adopted as
            # an orphan if it is complete
            filename = event.get("file")
            if event.get("op") == "segment" and isinstance(filename, str):
                self._ingest(filename, (pending or {}).get(filename))

    def _commit(self, filename: str, table: ResultTable) -> None:
        """Manifest one segment file, then ingest the manifest through its line.

        Reading the tail (instead of registering the table directly) keeps
        the in-memory segment order equal to the manifest order even when a
        sibling appended lines since the last read.  Caller holds
        ``self._lock``.
        """
        append_line(
            self.manifest_path,
            {"op": "segment", "file": filename, "rows": len(table)},
            fsync=self.fsync,
        )
        self._read_manifest_tail({filename: table})

    def _load_segment(self, filename: str) -> Optional[ResultTable]:
        try:
            return ResultTable.load_npz(self.directory / filename)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, EOFError):
            # a torn or foreign file must never poison replay — skip it (and
            # never retry it); the rows it would have held are simply
            # recomputed by the next sweep
            self.replay_skipped += 1
            self._unloadable.add(filename)
            return None

    def _ingest(self, filename: str, table: Optional[ResultTable] = None) -> None:
        """Register one segment (loading it unless given) and index its keys."""
        # caller holds self._lock
        if filename in self._segments or filename in self._unloadable:
            return
        if table is None:
            table = self._load_segment(filename)
            if table is None:
                return
        self._segments[filename] = table
        self._unmerged.append(table)
        for row, key in enumerate(table.keys.tolist()):
            if key:
                self._index[key] = (filename, row)

    def _replay(self) -> int:
        """Read the manifest tail and adopt orphans; returns the number of new segments."""
        with self._lock:
            before = len(self._segments)
            self._read_manifest_tail()
            # orphan adoption: complete segments whose manifest line was lost
            # to a crash between replace and append get re-manifested here
            orphans = set(os.listdir(self.directory)) - self._segments.keys() - self._unloadable
            for filename in sorted(orphans):
                if (
                    filename.startswith(_SEGMENT_PREFIX)
                    and filename.endswith(_SEGMENT_SUFFIX)
                    and filename not in self._segments  # a sibling may manifest it meanwhile
                ):
                    table = self._load_segment(filename)
                    if table is not None:
                        self._commit(filename, table)
            return len(self._segments) - before

    def refresh(self) -> int:
        """Pick up segments sealed by sibling writers; returns how many."""
        return self._replay()

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def writer(self, *, flush_every: int = 64) -> "ResultWriter":
        """A streaming writer sealing one segment every ``flush_every`` rows."""
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

    def _seal_segment(self, table: ResultTable) -> str:
        """Write one immutable segment + manifest line; returns the filename."""
        with self._lock:
            filename = f"{_SEGMENT_PREFIX}{self._writer_tag}-{self._writer_seq:06d}{_SEGMENT_SUFFIX}"
            self._writer_seq += 1
        # segment first (atomic replace), manifest line second: a line always
        # names a complete segment, and a lineless segment is adopted later
        table.save_npz(self.directory / filename, fsync=self.fsync)
        with self._lock:
            self._commit(filename, table)
        return filename

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
            filename, row = self._index[str(key)]
            table = self._segments[filename]
        return table.result(row)

    def table(self) -> ResultTable:
        """Every live row as one table (deduplicated by key, last write wins).

        The table is cached and shared between callers (it is immutable);
        only segments ingested since the previous call are merged into it.
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
                "segments": len(self._segments),
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
    """Streaming appender: buffers rows, seals a segment per ``flush_every``.

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
        """Seal the buffered rows as one segment (no-op when empty)."""
        with self._lock:
            rows, self._buffer = self._buffer, []
        if not rows:
            return
        builder = ResultTableBuilder()
        for key, result in rows:
            builder.append(result, key=key)
        self.store._seal_segment(builder.build())
        self.rows_written += len(rows)

    def close(self) -> None:
        self.flush()

    def __enter__(self) -> "ResultWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        # flush on the error path too: completed cases of an interrupted
        # sweep must be durable — that is the whole point of resumability
        self.close()
