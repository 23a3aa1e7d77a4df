"""Bench history: append-only run trajectory and its CLI listing."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.bench.history import BenchHistory, HistoryPoint, default_history_dir
from repro.bench.model import BenchCase, BenchResult, BenchRun


def _run(timestamp: str, *, host: str = "ci", seconds=(0.2, 0.1), error=None) -> BenchRun:
    result = BenchResult(
        case=BenchCase(name="full_sweep", suite="pipeline", params=(("problem", "XENON2"),)),
        seconds=list(seconds),
        warmup=1,
        metrics={"cases": 4.0},
        error=error,
    )
    return BenchRun(host=host, timestamp=timestamp, results=[result])


class TestBenchHistory:
    def test_append_writes_file_then_manifest_line(self, tmp_path):
        history = BenchHistory(tmp_path)
        path = history.append(_run("2026-08-08T10:00:00+00:00"))
        assert path.exists()
        lines = history.manifest_path.read_text().splitlines()
        assert len(lines) == 1
        event = json.loads(lines[0])
        assert event["op"] == "run"
        assert event["file"] == path.name
        assert event["cases"] == 1
        assert len(history) == 1

    def test_same_stamp_twice_gets_distinct_files(self, tmp_path):
        history = BenchHistory(tmp_path)
        a = history.append(_run("2026-08-08T10:00:00+00:00"))
        b = history.append(_run("2026-08-08T10:00:00+00:00"))
        assert a != b
        assert len(history) == 2
        assert len({name for name, _ in history.runs()}) == 2

    def test_trajectory_in_append_order(self, tmp_path):
        history = BenchHistory(tmp_path)
        history.append(_run("2026-08-07T10:00:00+00:00", seconds=(0.4, 0.3)))
        history.append(_run("2026-08-08T10:00:00+00:00", seconds=(0.2, 0.1)))
        points = history.trajectory("pipeline/full_sweep")
        assert [p.timestamp for p in points] == [
            "2026-08-07T10:00:00+00:00",
            "2026-08-08T10:00:00+00:00",
        ]
        assert [p.best for p in points] == [0.3, 0.1]
        assert all(isinstance(p, HistoryPoint) for p in points)
        assert history.trajectory("nope/missing") == []
        assert history.keys() == ["pipeline/full_sweep"]

    def test_torn_manifest_line_is_skipped(self, tmp_path):
        history = BenchHistory(tmp_path)
        history.append(_run("2026-08-08T10:00:00+00:00"))
        with open(history.manifest_path, "ab") as fh:
            fh.write(b'{"op":"run","file":"run-torn')  # crash mid-append
        assert len(history) == 1
        assert len(list(history.runs())) == 1

    def test_manifest_line_without_file_is_invisible(self, tmp_path):
        history = BenchHistory(tmp_path)
        history.append(_run("2026-08-08T10:00:00+00:00"))
        with open(history.manifest_path, "ab") as fh:
            fh.write(b'{"op":"run","file":"run-ghost.json"}\n')
        assert len(history) == 2  # the manifest admits it...
        assert len(list(history.runs())) == 1  # ...but replay skips the missing file

    def test_missing_directory_is_empty(self, tmp_path):
        history = BenchHistory(tmp_path / "nowhere")
        assert len(history) == 0
        assert history.trajectory() == []
        assert history.keys() == []

    def test_error_result_is_reported(self, tmp_path):
        history = BenchHistory(tmp_path)
        history.append(_run("2026-08-08T10:00:00+00:00", seconds=(), error="boom"))
        (point,) = history.trajectory()
        assert point.error == "boom"
        assert point.repeats == 0

    def test_default_dir_is_under_baselines(self):
        assert default_history_dir().endswith("history")
        assert "baselines" in default_history_dir()


class TestCrashReplayParity:
    """A crash at any point of :meth:`BenchHistory.append` is survivable."""

    def test_torn_trailing_line_then_append_continues(self, tmp_path):
        # crash mid-manifest-append: the torn line is ignored and the next
        # append lands after it without corrupting the replay
        history = BenchHistory(tmp_path)
        history.append(_run("2026-08-07T10:00:00+00:00"))
        with open(history.manifest_path, "ab") as fh:
            fh.write(b'{"op":"run","fi')
        history.append(_run("2026-08-08T10:00:00+00:00"))
        assert len(history) == 2
        assert len(list(history.runs())) == 2
        assert history.replay_skipped == 0

    def test_orphan_run_file_adopted(self, tmp_path):
        # crash between the two append steps: the run file exists, its
        # manifest line does not — adopt_orphans repairs the manifest
        history = BenchHistory(tmp_path)
        history.append(_run("2026-08-07T10:00:00+00:00"))
        orphan = _run("2026-08-08T10:00:00+00:00", seconds=(0.9, 0.8))
        orphan.save(str(tmp_path / "run-orphaned-ci.json"))
        assert len(history) == 1  # invisible until adopted

        adopted = history.adopt_orphans()
        assert adopted == ["run-orphaned-ci.json"]
        assert len(history) == 2
        assert [p.best for p in history.trajectory("pipeline/full_sweep")] == [0.1, 0.8]
        # idempotent: a second repair adopts nothing and changes nothing
        before = history.manifest_path.read_bytes()
        assert history.adopt_orphans() == []
        assert history.manifest_path.read_bytes() == before

    def test_unloadable_files_are_counted_not_adopted(self, tmp_path):
        history = BenchHistory(tmp_path)
        history.append(_run("2026-08-07T10:00:00+00:00"))
        # a manifested file whose contents were later corrupted...
        (manifested,) = [name for name, _ in history.runs()]
        (tmp_path / manifested).write_text("{broken json")
        # ...and an orphan that never finished writing
        (tmp_path / "run-torn-ci.json").write_text('{"host": "ci"')

        assert history.adopt_orphans() == []
        assert history.replay_skipped == 1  # the unloadable orphan
        assert list(history.runs()) == []
        assert history.replay_skipped == 1  # the corrupted manifested file
        assert len(history) == 1  # the manifest line itself survives

    def test_replay_skipped_resets_per_pass(self, tmp_path):
        history = BenchHistory(tmp_path)
        history.append(_run("2026-08-07T10:00:00+00:00"))
        with open(history.manifest_path, "ab") as fh:
            fh.write(b'{"op":"run","file":"run-ghost.json"}\n')
        assert len(list(history.runs())) == 1
        assert history.replay_skipped == 1
        assert len(list(history.runs())) == 1
        assert history.replay_skipped == 1  # counted fresh, not accumulated


class TestBenchHistoryCli:
    @pytest.fixture()
    def populated(self, tmp_path):
        history = BenchHistory(tmp_path)
        history.append(_run("2026-08-07T10:00:00+00:00", seconds=(0.4, 0.3)))
        history.append(_run("2026-08-08T10:00:00+00:00", seconds=(0.2, 0.1)))
        return tmp_path

    def test_history_md_listing(self, populated, capsys):
        assert main(["bench", "history", "--dir", str(populated)]) == 0
        out = capsys.readouterr().out
        assert "pipeline/full_sweep" in out
        assert "2 point(s) across 2 recorded run(s)" in out

    def test_history_json_with_case_and_limit(self, populated, capsys):
        code = main(
            ["bench", "history", "--dir", str(populated), "--case", "pipeline/full_sweep",
             "--limit", "1", "--format", "json"]
        )
        assert code == 0
        points = json.loads(capsys.readouterr().out)
        assert len(points) == 1
        assert points[0]["timestamp"] == "2026-08-08T10:00:00+00:00"
        assert points[0]["best"] == 0.1

    def test_history_bad_limit_errors(self, populated):
        with pytest.raises(SystemExit):
            main(["bench", "history", "--dir", str(populated), "--limit", "0"])

    def test_run_save_appends_history(self, tmp_path, capsys):
        code = main(
            ["bench", "run", "--suite", "results", "--scale", "0.05", "--repeats", "1",
             "--warmup", "0", "--save", str(tmp_path / "run.json"),
             "--history", str(tmp_path / "history"), "--format", "json"]
        )
        assert code == 0
        history = BenchHistory(tmp_path / "history")
        assert len(history) == 1
        assert "appended run to bench history" in capsys.readouterr().err

    def test_run_save_no_history_skips_append(self, tmp_path, capsys):
        code = main(
            ["bench", "run", "--suite", "results", "--scale", "0.05", "--repeats", "1",
             "--warmup", "0", "--save", str(tmp_path / "run.json"),
             "--no-history", "--format", "json"]
        )
        assert code == 0
        assert not (tmp_path / "history").exists()
        assert "appended run to bench history" not in capsys.readouterr().err
