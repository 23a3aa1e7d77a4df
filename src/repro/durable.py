"""Durable files: one append-only log format and one atomic writer.

This is the only module that calls ``os.fsync`` or ``os.replace``.  The job
journal, the result-store manifest and the bench-history manifest are
JSON-lines logs written by :func:`append_line` and read by
:func:`read_lines`; whole files (compacted journals, segments, traces,
artifacts, leaderboards, bench runs) are written by :func:`atomic_write`.
``fsync`` is always the caller's policy.

The torn-tail rule
------------------
A crash mid-append can leave a log's last line cut at any byte, without its
newline.  :func:`append_line` never glues a record onto such a fragment (it
writes the missing newline first), and :func:`read_lines` skips every line
that is not a JSON object — so a crash loses only the record it interrupted,
and every later record replays whole.  An unterminated last line that does
parse is returned but not consumed, so an incremental reader reads it again
once it is terminated.
"""

from __future__ import annotations

import contextlib
import json
import os
import uuid
from typing import Mapping

from repro.serialize import canonical_json

__all__ = ["append_line", "read_lines", "atomic_write"]


def append_line(path: str | os.PathLike, record: Mapping[str, object], *, fsync: bool) -> None:
    """Append ``record`` as one :func:`canonical_json` line: one write, at most one fsync.

    Concurrent appenders of one path must hold a common lock.
    """
    line = canonical_json(record)
    with open(path, "ab+") as fh:
        if fh.seek(0, os.SEEK_END) > 0:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                line = b"\n" + line  # keep a torn fragment on a line of its own
        fh.write(line)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())


def read_lines(path: str | os.PathLike, offset: int = 0) -> tuple[list[dict], int]:
    """The JSON-object records after byte ``offset``, and the offset consumed.

    The consumed offset ends at the last newline read.  A file that has
    shrunk below ``offset`` is read from the start; a missing file gives
    ``([], 0)``.
    """
    try:
        with open(path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size < offset:
                offset = 0
            fh.seek(offset)
            data = fh.read()
    except FileNotFoundError:
        return [], 0
    records = []
    for line in data.splitlines():
        with contextlib.suppress(ValueError):
            record = json.loads(line)
            if isinstance(record, dict):
                records.append(record)
    return records, offset + data.rfind(b"\n") + 1


def atomic_write(path: str | os.PathLike, data: bytes, *, fsync: bool) -> None:
    """Replace ``path`` with ``data``: a reader sees the old file or the new one.

    The bytes go to a unique, exclusively created sibling ``<name>.<hex>.tmp``
    (so concurrent writers of one path never share it; unlike ``mkstemp``
    it keeps the umask permissions), optionally fsync-ed, then
    ``os.replace``-d over ``path``.  The temp file is removed on any error.
    """
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
