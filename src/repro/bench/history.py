"""Bench history: an append-only trajectory of saved benchmark runs.

``repro bench run --save`` records one run file; this module strings those
runs into a *history* so a case's timing trajectory across days/commits can
be listed (``repro bench history``).  The manifest is a :mod:`repro.durable`
append-only log, like the :class:`~repro.results.ResultStore` manifest::

    benchmarks/baselines/history/
      manifest.jsonl            # one JSON line per appended run
      run-<utc>-<host>-<n>.json # immutable BenchRun files

A run file is written atomically first and its manifest line appended
(fsync-ed) second — so a manifest line implies a complete run file, a torn
trailing line is skipped on replay by the module's torn-tail rule, and a
run file without a line (crash between the two steps) is simply invisible
until :meth:`BenchHistory.adopt_orphans` re-manifests it.  Files are never
rewritten; the manifest order is the append order, which is the chronology
``trajectory`` reports.  Replay is lossy only for files that cannot be
loaded, and never silently: :attr:`BenchHistory.replay_skipped` counts them
per :meth:`~BenchHistory.runs` pass.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from repro.bench.model import BenchRun
from repro.durable import append_line, read_lines

__all__ = ["BenchHistory", "HistoryPoint", "default_history_dir"]

#: default directory of the committed bench history, next to the baselines.
_HISTORY_DIR = os.path.join("benchmarks", "baselines", "history")

_MANIFEST = "manifest.jsonl"


def default_history_dir() -> str:
    return _HISTORY_DIR


@dataclass(frozen=True)
class HistoryPoint:
    """One case's measurement inside one appended run."""

    timestamp: str
    host: str
    key: str
    best: float
    mean: float
    repeats: int
    error: Optional[str]
    file: str

    def to_dict(self) -> dict[str, object]:
        return {
            "timestamp": self.timestamp,
            "host": self.host,
            "key": self.key,
            "best": self.best,
            "mean": self.mean,
            "repeats": self.repeats,
            "error": self.error,
            "file": self.file,
        }


class BenchHistory:
    """The append-only run history under one directory."""

    def __init__(self, directory: "str | os.PathLike" = _HISTORY_DIR) -> None:
        self.directory = Path(directory)
        #: manifest-listed files that failed to load during the last
        #: :meth:`runs` pass (reset at the start of each pass), plus any
        #: unloadable orphans :meth:`adopt_orphans` refused to adopt since.
        self.replay_skipped: int = 0

    @property
    def manifest_path(self) -> Path:
        return self.directory / _MANIFEST

    # ------------------------------------------------------------------ #
    # append
    # ------------------------------------------------------------------ #
    def _run_filename(self, run: BenchRun) -> str:
        stamp = re.sub(r"[^0-9A-Za-z]+", "", run.timestamp) or "unstamped"
        host = re.sub(r"[^A-Za-z0-9_.\-]+", "-", run.host) or "unknown"
        base = f"run-{stamp}-{host}"
        name = f"{base}.json"
        n = 1
        while (self.directory / name).exists():
            name = f"{base}-{n}.json"
            n += 1
        return name

    def _append_manifest_line(self, name: str, run: BenchRun) -> None:
        record = {"op": "run", "file": name, "timestamp": run.timestamp, "host": run.host}
        record["cases"] = len(run.results)
        append_line(self.manifest_path, record, fsync=True)

    def append(self, run: BenchRun) -> Path:
        """Durably add one run: write its file, then its manifest line."""
        self.directory.mkdir(parents=True, exist_ok=True)
        name = self._run_filename(run)
        run.save(str(self.directory / name))
        self._append_manifest_line(name, run)
        return self.directory / name

    # ------------------------------------------------------------------ #
    # read
    # ------------------------------------------------------------------ #
    def _manifest_files(self) -> list[str]:
        """Run filenames in append order (a torn line is skipped)."""
        events, _ = read_lines(self.manifest_path)
        return [
            event["file"]
            for event in events
            if event.get("op") == "run" and isinstance(event.get("file"), str)
        ]

    def runs(self) -> Iterator[tuple[str, BenchRun]]:
        """``(filename, run)`` pairs in append order; unreadable files skipped.

        Skips are counted in :attr:`replay_skipped` (reset at the start of
        each pass), so a caller can tell a short history from a lossy replay.
        """
        self.replay_skipped = 0
        for name in self._manifest_files():
            try:
                yield name, BenchRun.load(str(self.directory / name))
            except (FileNotFoundError, ValueError, KeyError, json.JSONDecodeError):
                self.replay_skipped += 1
                continue

    def adopt_orphans(self) -> list[str]:
        """Manifest complete run files a crash left lineless; return their names.

        A crash between :meth:`append`'s two steps (run file written, line
        not yet flushed) leaves a complete, loadable run file invisible to
        replay.  This scans the directory for ``run-*.json`` files absent
        from the manifest, verifies each actually loads, and appends the
        missing manifest lines (in sorted filename order, so two repairs of
        the same directory produce the same manifest).  Unloadable orphans
        are never manifested — they count toward :attr:`replay_skipped`
        instead of poisoning every future replay.
        """
        manifested = set(self._manifest_files())
        adopted: list[str] = []
        for path in sorted(self.directory.glob("run-*.json")):
            name = path.name
            if name in manifested:
                continue
            try:
                run = BenchRun.load(str(path))
            except (ValueError, KeyError, json.JSONDecodeError):
                self.replay_skipped += 1
                continue
            self._append_manifest_line(name, run)
            adopted.append(name)
        return adopted

    def __len__(self) -> int:
        return len(self._manifest_files())

    def trajectory(self, key: Optional[str] = None) -> list[HistoryPoint]:
        """Every case measurement across the history, in append order.

        ``key`` (``"suite/name"``) restricts the listing to one case — the
        per-case trajectory ``repro bench history`` renders.
        """
        points: list[HistoryPoint] = []
        for name, run in self.runs():
            for result in run.results:
                if key is not None and result.case.key != key:
                    continue
                points.append(
                    HistoryPoint(
                        timestamp=run.timestamp,
                        host=run.host,
                        key=result.case.key,
                        best=result.best,
                        mean=result.mean,
                        repeats=result.repeats,
                        error=result.error,
                        file=name,
                    )
                )
        return points

    def keys(self) -> list[str]:
        """Every case key seen across the history, sorted."""
        return sorted({point.key for point in self.trajectory()})
