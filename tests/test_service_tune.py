"""Tune jobs through the service: queue records, daemon execution, HTTP API.

The daemon runs a tune job's whole search on its session against a
shared ``tune-store``, so re-submitting the same :class:`TuneSpec` is fully
memoized (``engine.stage_runs`` unchanged) and serves a byte-identical
leaderboard — the service-side half of ISSUE 9's acceptance criteria.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.service import JobSpec, ServiceClient, SweepService, make_server
from repro.specs import SweepSpec
from repro.tune import TuneSpec

NPROCS = 4
SCALE = 0.2

TUNE = dict(
    space="hybrid(alpha=0.0..1.0)",
    problems=["XENON2"],
    searcher="random(samples=2)",
    objective="peak-memory",
    seed=3,
)


def tiny_tune(**overrides) -> TuneSpec:
    return TuneSpec(**{**TUNE, **overrides})


def _wait_terminal(service: SweepService, job_id: str, timeout: float = 120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = service.queue.get(job_id)
        if record.state in ("done", "failed"):
            return record
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


# --------------------------------------------------------------------------- #
# JobSpec plumbing
# --------------------------------------------------------------------------- #
class TestTuneJobSpec:
    def test_round_trip(self):
        spec = JobSpec(tune=tiny_tune(), priority=2)
        clone = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.tune == tiny_tune()

    def test_tune_is_exclusive(self):
        sweep = SweepSpec(problems=["XENON2"], orderings=["metis"], strategies=["memory-full"])
        with pytest.raises(ValueError, match="exclusive"):
            JobSpec(sweep=sweep, tune=tiny_tune())

    def test_tune_expands_to_no_shardable_cases(self):
        spec = JobSpec(tune=tiny_tune())
        assert spec.expand() == []
        assert spec.total_cases() == tiny_tune().planned_evaluations() == 2

    def test_sweep_total_cases_unchanged(self):
        sweep = SweepSpec(problems=["XENON2"], orderings=["metis"], strategies=["memory-full"])
        assert JobSpec(sweep=sweep).total_cases() == 1


# --------------------------------------------------------------------------- #
# daemon execution (no sockets)
# --------------------------------------------------------------------------- #
@pytest.fixture()
def service(tmp_path):
    svc = SweepService(
        data_dir=tmp_path / "svc", nprocs=NPROCS, scale=SCALE, journal_fsync=False
    )
    with svc:
        yield svc


class TestTuneJobExecution:
    def test_tune_job_runs_to_done_and_persists_leaderboard(self, service):
        record = service.submit(JobSpec(tune=tiny_tune()))
        final = _wait_terminal(service, record.id)
        assert final.state == "done"
        assert final.done == final.total == 2
        (key,) = final.result_keys
        assert key.endswith(f"{record.id}.json")

        payload = service.leaderboard(record.id)
        assert payload == service.leaderboard()  # latest == this job
        assert len(payload["entries"]) == 2
        assert payload["spec"]["seed"] == 3

    def test_resubmitted_tune_is_memoized_and_byte_identical(self, service):
        first = _wait_terminal(service, service.submit(JobSpec(tune=tiny_tune())).id)
        runs_before = dict(service.engine.stage_runs)

        second = _wait_terminal(service, service.submit(JobSpec(tune=tiny_tune())).id)
        assert second.state == "done"
        assert dict(service.engine.stage_runs) == runs_before  # nothing recomputed

        a = (service.leaderboard_dir / f"{first.id}.json").read_bytes()
        b = (service.leaderboard_dir / f"{second.id}.json").read_bytes()
        assert a == b

    def test_leaderboard_lookup_errors(self, service):
        with pytest.raises(KeyError):
            service.leaderboard()  # nothing tuned yet
        with pytest.raises(KeyError):
            service.leaderboard("job-000042")
        with pytest.raises(ValueError):
            service.leaderboard("../../etc/passwd")


# --------------------------------------------------------------------------- #
# HTTP API
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def served(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("tune-e2e")
    service = SweepService(
        data_dir=data_dir, nprocs=NPROCS, scale=SCALE, journal_fsync=False
    )
    service.start()
    server = make_server(service, quiet=True)
    server.serve_background()
    client = ServiceClient(f"http://127.0.0.1:{server.port}")
    yield service, client
    server.shutdown()
    server.server_close()
    service.stop()


class TestTuneOverHttp:
    def test_leaderboard_404_before_any_tune(self, served):
        _, client = served
        with pytest.raises(Exception) as excinfo:
            client.leaderboard()
        assert "404" in str(excinfo.value) or "no leaderboard" in str(excinfo.value)

    def test_submit_tune_then_get_leaderboard(self, served):
        _, client = served
        record = client.submit({"tune": tiny_tune().to_dict()})
        final = client.wait(str(record["id"]), timeout=120)
        assert final["state"] == "done"

        latest = client.leaderboard()
        by_job = client.leaderboard(str(record["id"]))
        assert latest.payload == by_job.payload
        assert len(latest.payload["entries"]) == 2
        best = latest.payload["entries"][0]
        assert best["rank"] == 1
        assert best["strategy"].startswith("hybrid(")

    def test_leaderboard_unknown_job_is_404(self, served):
        _, client = served
        with pytest.raises(Exception) as excinfo:
            client.leaderboard("job-999999")
        assert "404" in str(excinfo.value) or "no leaderboard" in str(excinfo.value)
