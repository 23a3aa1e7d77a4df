"""The durable-file primitives and the one torn-tail rule every log obeys.

:mod:`repro.durable` is the only module that fsyncs or renames files into
place.  These tests pin its three functions, cut each of the three
append-only logs (job journal, result-store manifest, bench-history
manifest) at every byte of its last record, race concurrent atomic writers
of one path, and keep every other module off ``os.fsync``/``os.replace``.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import threading
import time
import uuid
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.bench.history import BenchHistory
from repro.bench.model import BenchCase, BenchResult, BenchRun
from repro.durable import STALE_TEMP_S, append_line, atomic_write, read_lines, remove_stale_temps
from repro.pipeline.store import DiskStore
from repro.pipeline.stage import CaseResult
from repro.results import ResultStore
from repro.service.jobs import JobJournal, JobQueue, JobRecord, JobSpec
from repro.specs import SweepSpec
from repro.tune.leaderboard import Leaderboard, LeaderboardEntry


def _leftover_temps(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.rglob("*.tmp*"))


def _job(i: int) -> JobRecord:
    spec = JobSpec(sweep=SweepSpec(problems=["XENON2"], orderings=["metis"]))
    return JobQueue(None).submit(spec, job_id=f"job-{i}")


class TestAppendAndRead:
    def test_missing_file_reads_empty(self, tmp_path):
        assert read_lines(tmp_path / "absent.jsonl") == ([], 0)
        assert read_lines(tmp_path / "absent.jsonl", 10) == ([], 0)

    def test_fragment_stays_on_its_own_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_line(path, {"n": 1}, fsync=False)
        with open(path, "ab") as fh:
            fh.write(b'{"n":')
        append_line(path, {"n": 2}, fsync=True)
        assert path.read_bytes() == b'{"n":1}\n{"n":\n{"n":2}\n'
        assert read_lines(path) == ([{"n": 1}, {"n": 2}], len(path.read_bytes()))

    def test_unterminated_line_is_parsed_but_not_consumed(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"n":1}\n{"n":2}')
        assert read_lines(path) == ([{"n": 1}, {"n": 2}], 8)
        # the next read from the consumed offset sees the line again
        assert read_lines(path, 8) == ([{"n": 2}], 8)
        append_line(path, {"n": 3}, fsync=False)
        assert read_lines(path, 8) == ([{"n": 2}, {"n": 3}], 24)

    def test_shrunk_file_is_read_from_the_start(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"n":1}\n')
        assert read_lines(path, 100) == ([{"n": 1}], 8)

    def test_blank_garbage_and_non_objects_are_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'\n  \n[1,2]\n7\n\xff\xfe\n{"n":1}\n{broken\n')
        records, consumed = read_lines(path)
        assert records == [{"n": 1}]
        assert consumed == len(path.read_bytes())


class TestAtomicWrite:
    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "f.bin"
        atomic_write(path, b"old", fsync=False)
        atomic_write(path, b"new bytes", fsync=True)
        assert path.read_bytes() == b"new bytes"
        assert _leftover_temps(tmp_path) == []

    def test_failed_replace_removes_the_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()  # a directory cannot be replaced by a file
        with pytest.raises(OSError):
            atomic_write(target, b"data", fsync=False)
        assert _leftover_temps(tmp_path) == []

    @staticmethod
    def _race(worker, rounds: int = 200) -> list[BaseException]:
        errors: list[BaseException] = []

        def run(tag: int) -> None:
            try:
                for i in range(rounds):
                    worker(tag, i)
            except BaseException as exc:  # pragma: no cover - the failure being tested
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(tag,)) for tag in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
            assert not thread.is_alive()
        return errors

    def test_concurrent_leaderboard_saves_share_no_temp_file(self, tmp_path):
        path = tmp_path / "leaderboards" / "latest.json"

        def save(tag: int, i: int) -> None:
            entry = LeaderboardEntry(
                rank=1, key=f"k{tag}", strategy="memory-full", split=False,
                split_threshold=None, rung=0, score=float(i), ci_low=0.0, ci_high=1.0,
                per_problem={"XENON2": float(i)},
            )
            Leaderboard(spec={"seed": tag}, rungs=[], entries=[entry], evaluations=i).save(path)

        assert self._race(save) == []
        assert Leaderboard.load(path).evaluations == 199
        assert _leftover_temps(tmp_path) == []

    def test_concurrent_journal_compactions_share_no_temp_file(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        records = [_job(i) for i in range(3)]
        journals = [JobJournal(path, fsync=False) for _ in range(2)]
        assert self._race(lambda tag, i: journals[tag].compact(records), rounds=100) == []
        assert sorted(JobJournal(path).replay()) == ["job-0", "job-1", "job-2"]
        assert _leftover_temps(tmp_path) == []


class TestStaleTemps:
    """Opening a store directory removes a killed writer's temp files only."""

    @staticmethod
    def _temp(directory: Path, name: str, age_s: float) -> Path:
        path = directory / f"{name}.{uuid.uuid4().hex}.tmp"
        path.write_bytes(b"partial")
        then = time.time() - age_s
        os.utime(path, (then, then))
        return path

    @pytest.mark.parametrize(
        "open_dir",
        [
            lambda d: ResultStore(d, fsync=False),
            lambda d: DiskStore(d),
            lambda d: BenchHistory(d),
            lambda d: JobQueue(d / "journal.jsonl", fsync=False),
        ],
        ids=["result-store", "disk-store", "bench-history", "job-journal"],
    )
    def test_open_removes_the_stale_temp_and_keeps_the_fresh_one(self, tmp_path, open_dir):
        tmp_path.joinpath("keep.tmp").write_bytes(b"not ours")
        os.utime(tmp_path / "keep.tmp", (0, 0))
        stale = self._temp(tmp_path, "seg-0000.npz", STALE_TEMP_S + 60)
        fresh = self._temp(tmp_path, "seg-0001.npz", 1.0)  # another writer's, in flight
        open_dir(tmp_path)
        assert not stale.exists()
        assert fresh.exists()
        assert (tmp_path / "keep.tmp").exists()

    def test_missing_directory_is_no_error(self, tmp_path):
        remove_stale_temps(tmp_path / "absent")


def _bench_run(timestamp: str, **env) -> BenchRun:
    result = BenchResult(
        case=BenchCase(name="full_sweep", suite="pipeline", params=()),
        seconds=[0.2, 0.1],
        warmup=1,
        metrics={"cases": 4.0},
    )
    return BenchRun(host="ci", timestamp=timestamp, env=env, results=[result])


class TestBenchRunSave:
    def test_failed_serialisation_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "ci-ubuntu.json"
        _bench_run("2026-08-07T10:00:00+00:00").save(str(path))
        before = path.read_bytes()
        with pytest.raises(TypeError):
            _bench_run("2026-08-08T10:00:00+00:00", cache=object()).save(str(path))
        assert path.read_bytes() == before
        assert _leftover_temps(tmp_path) == []
        assert BenchRun.load(str(path)).timestamp == "2026-08-07T10:00:00+00:00"


# --------------------------------------------------------------------------- #
# one crash test, three logs
# --------------------------------------------------------------------------- #
def _case_result(i: int) -> CaseResult:
    per_proc = np.linspace(1.0 + i, 10.0 + i, 4)
    return CaseResult(
        problem="XENON2", ordering="metis", strategy="memory-full", split=False, nprocs=4,
        max_peak_stack=float(per_proc.max()), avg_peak_stack=float(per_proc.mean()),
        sum_peak_stack=float(per_proc.sum()), total_time=0.001 * (i + 1),
        total_factor_entries=1000.0 * (i + 1), per_proc_peak_stack=per_proc,
        nodes=50 + i, nodes_split=0, messages=200 + i,
    )


class _JournalLog:
    """The job journal, driven below ``JobQueue`` (whose startup compaction
    would drop the fragment): the torn-tail rule alone must protect it."""

    name = "journal.jsonl"

    def append(self, directory: Path, i: int) -> None:
        journal = JobJournal(directory / self.name, fsync=False)
        journal.append({"op": "submit", "job": _job(i).to_dict()})

    def replay(self, directory: Path) -> set[int]:
        return {int(key.split("-")[1]) for key in JobJournal(directory / self.name).replay()}


class _StoreLog:
    """The result store, whose manifest holds each sealed batch as one
    record: a cut record is simply lost, with nothing to adopt."""

    name = "manifest.jsonl"

    def append(self, directory: Path, i: int) -> None:
        ResultStore(directory, fsync=False).seal([f"k{i}"], [_case_result(i)])

    def replay(self, directory: Path) -> set[int]:
        return {int(key[1:]) for key in ResultStore(directory, fsync=False).keys()}


class _HistoryLog:
    """The bench-history manifest; a run whose line was cut stays invisible."""

    name = "manifest.jsonl"

    def append(self, directory: Path, i: int) -> None:
        BenchHistory(directory).append(_bench_run(f"2026-08-0{i + 1}T10:00:00+00:00"))

    def replay(self, directory: Path) -> set[int]:
        return {int(run.timestamp[8:10]) - 1 for _, run in BenchHistory(directory).runs()}


@pytest.mark.parametrize(
    "log", [_JournalLog(), _StoreLog(), _HistoryLog()], ids=lambda log: type(log).__name__
)
def test_torn_last_record_at_every_byte_then_append_and_replay(tmp_path, log):
    pristine = tmp_path / "pristine"
    pristine.mkdir()
    for i in range(3):
        log.append(pristine, i)
    data = (pristine / log.name).read_bytes()
    last = data.rindex(b"\n", 0, len(data) - 1) + 1
    for cut in range(last, len(data)):
        directory = tmp_path / f"cut-{cut}"
        shutil.copytree(pristine, directory)
        (directory / log.name).write_bytes(data[:cut])
        log.append(directory, 3)

        # a record cut short is lost; one missing only its newline is
        # terminated by the next append and so is whole again
        replayed = log.replay(directory)
        assert replayed == ({0, 1, 2, 3} if cut == len(data) - 1 else {0, 1, 3}), cut
        fragment = data[last:cut]
        for line in (directory / log.name).read_bytes().split(b"\n")[:-1]:
            try:
                assert isinstance(json.loads(line), dict), cut
            except json.JSONDecodeError:
                assert line == fragment, cut  # the fragment is a line of its own


# --------------------------------------------------------------------------- #
# tripwire: the durability policy lives in one module
# --------------------------------------------------------------------------- #
_DURABILITY_CALLS = {"fsync", "fdatasync", "replace", "rename"}


def test_only_durable_calls_fsync_or_replace():
    package = Path(repro.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        if path.relative_to(package).as_posix() == "durable.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        os_names = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "os"
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _DURABILITY_CALLS
                and isinstance(node.value, ast.Name)
                and node.value.id in os_names
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and any(alias.name in _DURABILITY_CALLS for alias in node.names)
            ):
                offenders.append(f"{path.relative_to(package)}:{node.lineno}")
    assert offenders == [], "use repro.durable instead of os.fsync/os.replace: " + ", ".join(offenders)
