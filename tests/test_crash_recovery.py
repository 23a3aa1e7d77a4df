"""Crash tolerance of the execution paths and queue backpressure.

A SIGKILLed worker (the OOM-killer's signature) must never wedge a sweep:
:class:`SweepExecutor` rebuilds its pool mid-sweep and resubmits exactly the
unfinished analysis groups, a daemon running jobs on that pool finishes them
with every key, and a crash that outlasts the rebuilds surfaces as a
retryable :class:`WorkerCrashError` that the daemon counts toward the job's
``max_attempts`` like any other failed run.

The backpressure half: ``max_pending`` bounds the queue depth —
``POST /jobs`` answers 503 with a ``Retry-After`` header while saturated,
and ``/healthz`` reports ``queue_depth``/``saturated``.
"""

from __future__ import annotations

import json
import os
import signal
import time
import urllib.error
import urllib.request

import pytest

from repro.pipeline.engine import AnalysisPipeline
from repro.pipeline.executor import SweepExecutor, WorkerCrashError
from repro.pipeline.stage import CaseSpec
from repro.results import case_key_for
from repro.service import SweepService, make_server
from repro.service.daemon import QueueSaturated
from repro.service.jobs import JobJournal

NPROCS = 4
SCALE = 0.2


def _engine() -> AnalysisPipeline:
    return AnalysisPipeline(nprocs=NPROCS, scale=SCALE, cache_dir="")


def _kill_one_worker(pool) -> None:
    """SIGKILL one live worker process of a concurrent.futures pool."""
    for pid, proc in pool._processes.items():
        if proc.is_alive():
            os.kill(pid, signal.SIGKILL)
            return
    raise AssertionError("no live worker process to kill")


def _wait_terminal(service: SweepService, job_id: str, timeout: float = 120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = service.queue.get(job_id)
        if record.state in ("done", "failed"):
            return record
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


# --------------------------------------------------------------------------- #
# SweepExecutor
# --------------------------------------------------------------------------- #
class TestExecutorCrashRecovery:
    STRATEGIES = ["memory-full", "mumps-workload", "memory-basic", "memory-task"]

    def test_crash_error_is_retryable(self):
        # the daemon's retry loop catches Exception: the crash must be one
        assert issubclass(WorkerCrashError, RuntimeError)

    def test_pool_broken_between_runs_is_rebuilt(self):
        # distinct orderings → one analysis group per case → parallel path
        specs = [
            CaseSpec("XENON2", o, "memory-full")
            for o in ("metis", "amd", "amf", "pord")
        ]
        serial_engine = _engine()
        serial = [serial_engine.run_case(s).to_dict() for s in specs]
        with SweepExecutor(_engine(), jobs=2) as executor:
            first = executor.run(specs)
            assert [r.to_dict() for r in first] == serial
            _kill_one_worker(executor._pool)
            # the killed worker breaks the pool; the next run must rebuild
            # it transparently and still deliver every result
            second = executor.run(specs)
            assert [r.to_dict() for r in second] == serial

    def test_a_late_crash_report_keeps_the_replacement_pool(self):
        # two runs sharing the executor both see one crash: the second to
        # report it must not shut down the pool the first one rebuilt
        specs = [CaseSpec("XENON2", o, "memory-full") for o in ("metis", "amd")]
        with SweepExecutor(_engine(), jobs=2) as executor:
            executor.run(specs)
            broken = executor._pool
            _kill_one_worker(broken)
            executor.run(specs)
            fresh = executor._pool
            assert fresh is not broken
            executor._drop_pool(broken)
            assert executor._pool is fresh
            assert len(executor.run(specs)) == 2

    def test_kill_mid_sweep_recovers_and_matches_serial(self):
        specs = [
            CaseSpec("XENON2", o, s)
            for o in ("metis", "amd", "amf", "pord")
            for s in ("memory-full", "mumps-workload")
        ]
        serial_engine = _engine()
        serial = [r.to_dict() for r in [serial_engine.run_case(s) for s in specs]]
        killed = {"done": False}

        with SweepExecutor(_engine(), jobs=2) as executor:

            def kill_once(index, spec, result):
                if not killed["done"]:
                    killed["done"] = True
                    _kill_one_worker(executor._pool)

            results = executor.run(specs, on_result=kill_once)
        assert killed["done"]
        assert [r.to_dict() for r in results] == serial


# --------------------------------------------------------------------------- #
# daemon: a pool crash mid-job is recovered; a crashed run counts toward
# max_attempts
# --------------------------------------------------------------------------- #
class TestDaemonPoolCrash:
    def test_sigkilled_worker_mid_job_finishes_every_key(self, tmp_path):
        service = SweepService(
            data_dir=tmp_path / "svc", nprocs=NPROCS, scale=SCALE,
            journal_fsync=False, jobs=2,
        )
        run = service.session.run_stored
        killed = []

        def kill_after_first_seal(specs, store, *, on_seal, **kwargs):
            def seal_then_kill(keys):
                on_seal(keys)
                if not killed:
                    pool = service.session._executor._pool
                    _kill_one_worker(pool)
                    give_up = time.monotonic() + 30.0
                    while not pool._broken and time.monotonic() < give_up:
                        time.sleep(0.01)
                    killed.append(pool)

            return run(specs, store, on_seal=seal_then_kill, **kwargs)

        service.session.run_stored = kill_after_first_seal
        with service:
            # eight groups on two workers: the first seal finds groups in flight
            record = service.submit(
                {"sweep": {"problems": ["XENON2", "PRE2"],
                           "orderings": ["metis", "amd", "amf", "pord"],
                           "strategies": ["mumps-workload", "memory-full"]}}
            )
            final = _wait_terminal(service, record.id)
            assert killed and killed[0]._broken
            assert service.session._executor._pool is not killed[0]  # rebuilt, not retried
        assert final.state == "done" and final.attempts == 0
        assert final.done == final.total == 16
        assert len(set(final.result_keys)) == 16
        assert all(key in service.results for key in final.result_keys)
        serial = _engine()
        assert [service.results.get(case_key_for(serial, spec)).to_dict()
                for spec in record.spec.expand()] == [
            serial.run_case(spec).to_dict() for spec in record.spec.expand()
        ]


class CrashOnce:
    """Patches a daemon's stored run: the first call raises a worker crash."""

    def __init__(self, service: SweepService) -> None:
        self.run = service.session.run_stored
        self.crashes = 0
        service.session.run_stored = self

    def __call__(self, specs, store, **kwargs):
        if self.crashes == 0:
            self.crashes += 1
            raise WorkerCrashError("worker process died (simulated)")
        return self.run(specs, store, **kwargs)


class TestDaemonCrashRetry:
    def test_crashed_shard_retries_and_finishes(self, tmp_path):
        service = SweepService(
            data_dir=tmp_path / "svc", nprocs=NPROCS, scale=SCALE,
            journal_fsync=False, retry_base_delay=0.01,
        )
        crash = CrashOnce(service)
        with service:
            record = service.submit(
                {"sweep": {"problems": ["XENON2"], "strategies": ["memory-full"]},
                 "max_attempts": 3}
            )
            final = _wait_terminal(service, record.id)
        assert final.state == "done"
        assert final.attempts == 1  # the crash was journaled as an attempt
        assert crash.crashes == 1

    def test_crash_budget_exhausted_fails_with_crash_error(self, tmp_path):
        service = SweepService(
            data_dir=tmp_path / "svc", nprocs=NPROCS, scale=SCALE,
            journal_fsync=False, retry_base_delay=0.01,
        )

        def always_crash(specs, store, **kwargs):
            raise WorkerCrashError("worker process died (simulated)")

        service.session.run_stored = always_crash
        with service:
            record = service.submit(
                {"sweep": {"problems": ["XENON2"], "strategies": ["memory-full"]},
                 "max_attempts": 2}
            )
            final = _wait_terminal(service, record.id)
        assert final.state == "failed"
        assert "WorkerCrashError" in final.error


class TestRerunResetsProgress:
    """A rerun starts from zero: no stale ``done`` and no duplicate keys."""

    GRID = {"sweep": {"problems": ["XENON2"], "orderings": ["metis", "amd"],
                      "strategies": ["mumps-workload", "memory-full"]}}

    def _assert_finished_once(self, record) -> None:
        assert record.state == "done"
        assert record.done == record.total == 4
        assert len(record.result_keys) == len(set(record.result_keys)) == record.total

    def test_recovered_running_job_reruns_from_zero(self, tmp_path):
        data_dir = tmp_path / "svc"
        options = dict(data_dir=data_dir, nprocs=NPROCS, scale=SCALE,
                       journal_fsync=False)
        # a daemon that died after journaling the first of two shards
        crashed = SweepService(**options)
        job = crashed.submit(self.GRID)
        crashed.queue.claim(timeout=0)
        first = [case_key_for(crashed.engine, s) for s in job.spec.expand()[:2]]
        crashed.queue.progress(job.id, done=2, shards_done=1, result_keys=first)

        service = SweepService(**options)
        recovered = service.queue.get(job.id)
        assert service.queue.recovered == 1
        assert (recovered.state, recovered.done, recovered.shards_done) == ("queued", 0, 0)
        assert recovered.result_keys == []
        # the compacted journal holds the reset too
        replayed = JobJournal(data_dir / "journal.jsonl").replay()[job.id]
        assert (replayed.done, replayed.shards_done, replayed.result_keys) == (0, 0, [])
        with service:
            final = _wait_terminal(service, job.id)
        self._assert_finished_once(final)
        assert set(first) <= set(final.result_keys)


# --------------------------------------------------------------------------- #
# backpressure
# --------------------------------------------------------------------------- #
def _job_payload() -> dict:
    return {"sweep": {"problems": ["XENON2"], "strategies": ["memory-full"]}}


class TestBackpressure:
    def test_submit_rejected_at_max_pending(self, tmp_path):
        # never started: jobs stay queued, so the depth is deterministic
        service = SweepService(
            data_dir=tmp_path / "svc", nprocs=NPROCS, scale=SCALE,
            journal_fsync=False, max_pending=2,
        )
        try:
            service.submit(_job_payload())
            service.submit(_job_payload())
            assert service.saturated()
            with pytest.raises(QueueSaturated, match="saturated"):
                service.submit(_job_payload())
            stats = service.stats()
            assert stats["queue_depth"] == 2
            assert stats["saturated"] is True
            assert stats["max_pending"] == 2
        finally:
            service.stop()

    def test_unbounded_by_default(self, tmp_path):
        service = SweepService(
            data_dir=tmp_path / "svc", nprocs=NPROCS, scale=SCALE,
            journal_fsync=False,
        )
        try:
            for _ in range(5):
                service.submit(_job_payload())
            assert service.saturated() is False
            assert service.stats()["max_pending"] is None
        finally:
            service.stop()

    def test_invalid_max_pending_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_pending must be >= 1"):
            SweepService(
                data_dir=tmp_path / "svc", nprocs=NPROCS, scale=SCALE,
                journal_fsync=False, max_pending=0,
            )

    def test_http_503_with_retry_after(self, tmp_path):
        service = SweepService(
            data_dir=tmp_path / "svc", nprocs=NPROCS, scale=SCALE,
            journal_fsync=False, max_pending=1,
        )
        server = make_server(service, port=0, quiet=True)
        server.serve_background()
        base = f"http://127.0.0.1:{server.port}"
        try:
            body = json.dumps(_job_payload()).encode()

            def post():
                request = urllib.request.Request(
                    f"{base}/jobs", data=body,
                    headers={"Content-Type": "application/json"},
                )
                return urllib.request.urlopen(request, timeout=10)

            first = post()
            assert first.status == 202
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post()
            response = excinfo.value
            assert response.code == 503
            assert response.headers["Retry-After"] == "5"
            payload = json.loads(response.read())
            assert "saturated" in payload["error"]
            assert payload["retry_after"] == 5.0
            # healthz reports the saturation out-of-band
            health = json.loads(
                urllib.request.urlopen(f"{base}/healthz", timeout=10).read()
            )
            assert health["queue_depth"] == 1
            assert health["saturated"] is True
        finally:
            server.shutdown()
            server.server_close()
            service.stop()
