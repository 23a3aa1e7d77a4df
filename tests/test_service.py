"""Tests of the sweep service: jobs, shards, daemon, HTTP API.

The unit tests drive the queue/shard layers directly (with injected
clocks and backends, no sockets); the end-to-end tests run the real daemon
behind a real loopback HTTP server — submit → poll → query — and assert the
acceptance criteria: a repeated ``GET /result`` is served from the result
store (stage-execution counters unchanged) with byte-identical JSON, within
one daemon, across a restart and across sibling daemons.
"""

from __future__ import annotations

import contextlib
import json
import time

import pytest

from repro.pipeline.stage import CaseSpec
from repro.results import ResultStore, case_key_for
from repro.service import (
    InlineShardBackend,
    JobQueue,
    JobSpec,
    JobStateError,
    ServiceClient,
    ServiceError,
    SweepService,
    case_spec_from_query,
    make_server,
    partition_shards,
)
from repro.serialize import canonical_json
from repro.specs import SweepSpec

NPROCS = 4
SCALE = 0.2


def tiny_sweep(problems=("XENON2",), strategies=("memory-full",)) -> SweepSpec:
    return SweepSpec(problems=list(problems), orderings=["metis"], strategies=list(strategies))


# --------------------------------------------------------------------------- #
# JobSpec / JobRecord
# --------------------------------------------------------------------------- #
class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec(
            sweep=tiny_sweep(strategies=["mumps-workload", "memory-full"]),
            cases=(CaseSpec("PRE2", "amd"),),
            priority=2,
            max_attempts=5,
            timeout_s=9.5,
        )
        clone = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert [c.problem for c in clone.expand()] == ["XENON2", "XENON2", "PRE2"]

    def test_needs_work(self):
        with pytest.raises(ValueError, match="sweep grid, explicit cases, or a tune spec"):
            JobSpec()

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError, match="max_attempts"):
            JobSpec(sweep=tiny_sweep(), max_attempts=0)
        with pytest.raises(ValueError, match="timeout_s"):
            JobSpec(sweep=tiny_sweep(), timeout_s=0)

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown JobSpec fields"):
            JobSpec.from_dict({"sweep": tiny_sweep().to_dict(), "nope": 1})


# --------------------------------------------------------------------------- #
# JobQueue: state machine + journal
# --------------------------------------------------------------------------- #
class TestJobQueue:
    def test_lifecycle_done(self, tmp_path):
        queue = JobQueue(tmp_path / "journal.jsonl", fsync=False)
        record = queue.submit(JobSpec(sweep=tiny_sweep()))
        assert record.state == "queued"
        assert record.total == 1
        claimed = queue.claim(timeout=1)
        assert claimed is not None and claimed.id == record.id
        assert queue.get(record.id).state == "running"
        queue.progress(record.id, done=1, shards_done=1, result_keys=["result-x"])
        queue.finish(record.id)
        final = queue.get(record.id)
        assert final.state == "done"
        assert final.done == final.total == 1
        assert final.result_keys == ["result-x"]
        assert final.finished_at is not None

    def test_lifecycle_failed_and_terminal_states_frozen(self, tmp_path):
        queue = JobQueue(tmp_path / "journal.jsonl", fsync=False)
        record = queue.submit(JobSpec(sweep=tiny_sweep()))
        queue.claim(timeout=1)
        queue.fail(record.id, "boom")
        assert queue.get(record.id).state == "failed"
        with pytest.raises(JobStateError, match="illegal transition"):
            queue.finish(record.id)
        with pytest.raises(JobStateError, match="illegal transition"):
            queue.requeue(record.id)

    def test_cannot_finish_unclaimed(self, tmp_path):
        queue = JobQueue(tmp_path / "journal.jsonl", fsync=False)
        record = queue.submit(JobSpec(sweep=tiny_sweep()))
        with pytest.raises(JobStateError, match="queued.*done"):
            queue.finish(record.id)

    def test_priority_order(self, tmp_path):
        queue = JobQueue(tmp_path / "journal.jsonl", fsync=False)
        low = queue.submit(JobSpec(sweep=tiny_sweep(), priority=0))
        high = queue.submit(JobSpec(sweep=tiny_sweep(), priority=5))
        assert queue.claim(timeout=1).id == high.id
        assert queue.claim(timeout=1).id == low.id

    def test_claim_timeout_returns_none(self, tmp_path):
        queue = JobQueue(tmp_path / "journal.jsonl", fsync=False)
        assert queue.claim(timeout=0.01) is None

    def test_requeue_bumps_attempts_and_resets_progress(self, tmp_path):
        queue = JobQueue(tmp_path / "journal.jsonl", fsync=False)
        record = queue.submit(JobSpec(sweep=tiny_sweep()))
        queue.claim(timeout=1)
        queue.progress(record.id, done=1, shards_done=1)
        queue.requeue(record.id, error="transient")
        back = queue.get(record.id)
        assert back.state == "queued"
        assert back.attempts == 1
        assert back.done == 0 and back.shards_done == 0
        assert queue.claim(timeout=1).id == record.id

    def test_journal_replay_recovers_crashed_jobs(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        queue = JobQueue(path, fsync=False)
        finished = queue.submit(JobSpec(sweep=tiny_sweep()))
        crashed = queue.submit(JobSpec(sweep=tiny_sweep()))
        waiting = queue.submit(JobSpec(sweep=tiny_sweep(), priority=-1))
        assert queue.claim(timeout=1).id == finished.id
        queue.finish(finished.id, result_keys=["result-a"])
        assert queue.claim(timeout=1).id == crashed.id  # dies while running

        revived = JobQueue(path, fsync=False)  # the "restarted daemon"
        assert revived.recovered == 1
        assert revived.get(finished.id).state == "done"
        assert revived.get(finished.id).result_keys == ["result-a"]
        assert revived.get(crashed.id).state == "queued"
        assert revived.get(waiting.id).state == "queued"
        # the crashed job is claimable again (and outranks the low-priority one)
        assert revived.claim(timeout=1).id == crashed.id

    def test_journal_ignores_torn_trailing_line(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        queue = JobQueue(path, fsync=False)
        record = queue.submit(JobSpec(sweep=tiny_sweep()))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"op": "update", "id": "' + record.id + '", "state": "fai')  # torn
        revived = JobQueue(path, fsync=False)
        assert revived.get(record.id).state == "queued"

    def test_torn_tail_loses_no_later_submit(self, tmp_path):
        # a crash mid-append leaves the last record cut at any byte; the
        # restarted queue compacts the journal right after replay, which
        # drops the fragment, so the next append starts on a clean line
        path = tmp_path / "journal.jsonl"
        queue = JobQueue(path, fsync=False)
        kept = queue.submit(JobSpec(sweep=tiny_sweep()))
        last = queue.submit(JobSpec(sweep=tiny_sweep(), priority=3))
        intact = path.read_bytes()
        start = intact.rindex(b"\n", 0, len(intact) - 1) + 1
        for cut in range(start, len(intact)):
            path.write_bytes(intact[:cut])
            after = JobQueue(path, fsync=False).submit(JobSpec(sweep=tiny_sweep()))
            jobs = {record.id: record.state for record in JobQueue(path, fsync=False).list()}
            # only when just the newline is cut does the last record still parse
            survivors = {kept.id, after.id} | ({last.id} if cut == len(intact) - 1 else set())
            assert jobs == dict.fromkeys(survivors, "queued"), cut

    def test_counts(self, tmp_path):
        queue = JobQueue(tmp_path / "journal.jsonl", fsync=False)
        a = queue.submit(JobSpec(sweep=tiny_sweep()))
        queue.submit(JobSpec(sweep=tiny_sweep()))
        queue.claim(timeout=1)
        queue.fail(a.id, "x")
        counts = queue.counts()
        assert counts == {"queued": 1, "running": 0, "done": 0, "failed": 1}


# --------------------------------------------------------------------------- #
# shard partitioning
# --------------------------------------------------------------------------- #
class TestPartitionShards:
    def test_groups_by_analysis_signature(self):
        specs = [
            CaseSpec("XENON2", "metis", "mumps-workload"),
            CaseSpec("PRE2", "metis", "memory-full"),
            CaseSpec("XENON2", "metis", "memory-full"),
            CaseSpec("XENON2", "metis", "memory-full", nprocs=8),
        ]
        shards = partition_shards(specs)
        assert [[i for i, _ in shard] for shard in shards] == [[0, 2], [1], [3]]

    def test_chunking(self):
        specs = [CaseSpec("XENON2", "metis", f"hybrid(alpha=0.{i})") for i in range(1, 6)]
        shards = partition_shards(specs, max_shard_size=2)
        assert [len(s) for s in shards] == [2, 2, 1]
        assert [i for shard in shards for i, _ in shard] == list(range(5))

    def test_bad_shard_size(self):
        with pytest.raises(ValueError, match="max_shard_size"):
            partition_shards([], max_shard_size=0)


# --------------------------------------------------------------------------- #
# result keys and query parsing
# --------------------------------------------------------------------------- #
class TestResultKeys:
    @pytest.fixture(scope="class")
    def engine(self):
        from repro.pipeline.engine import AnalysisPipeline

        return AnalysisPipeline(nprocs=NPROCS, scale=SCALE, cache_dir="")

    def test_defaults_and_explicit_values_share_a_key(self, engine):
        implicit = CaseSpec("XENON2", "metis", "memory-full")
        explicit = CaseSpec("XENON2", "metis", "memory-full", nprocs=NPROCS, scale=SCALE)
        assert case_key_for(engine, implicit) == case_key_for(engine, explicit)

    def test_params_differentiate(self, engine):
        base = CaseSpec("XENON2", "metis", "hybrid(alpha=0.3)")
        other = CaseSpec("XENON2", "metis", "hybrid(alpha=0.5)")
        assert case_key_for(engine, base) != case_key_for(engine, other)

    def test_keyword_order_is_canonicalised(self, engine):
        a = CaseSpec("XENON2", "metis", "hybrid(alpha=0.3,use_predictions=false)")
        b = CaseSpec("XENON2", "metis", "hybrid(use_predictions=false, alpha=0.3)")
        assert case_key_for(engine, a) == case_key_for(engine, b)

    def test_query_parsing(self):
        spec = case_spec_from_query(
            {"problem": "xenon2", "strategy": "hybrid(alpha=0.3)", "nprocs": "8", "split": "true"}
        )
        assert spec.problem == "XENON2"
        assert spec.strategy == "hybrid(alpha=0.3)"
        assert spec.nprocs == 8 and spec.split is True
        assert spec.ordering == "metis"  # default

    def test_query_parsing_errors(self):
        with pytest.raises(ValueError, match="missing required"):
            case_spec_from_query({})
        with pytest.raises(ValueError, match="unknown query parameter"):
            case_spec_from_query({"problem": "XENON2", "bogus": "1"})
        with pytest.raises(ValueError, match="expects int"):
            case_spec_from_query({"problem": "XENON2", "nprocs": "eight"})
        with pytest.raises(ValueError, match="expects a boolean"):
            case_spec_from_query({"problem": "XENON2", "split": "maybe"})


# --------------------------------------------------------------------------- #
# daemon execution policies (no sockets: direct SweepService)
# --------------------------------------------------------------------------- #
class FlakyBackend(InlineShardBackend):
    """Fails the first ``failures`` run_shard calls, then delegates."""

    def __init__(self, engine, failures: int) -> None:
        super().__init__(engine)
        self.failures = failures
        self.calls = 0

    def run_shard(self, specs, *, timeout_s=None):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError(f"transient failure {self.calls}")
        return super().run_shard(specs, timeout_s=timeout_s)


class SlowBackend(InlineShardBackend):
    def __init__(self, engine, delay: float) -> None:
        super().__init__(engine)
        self.delay = delay

    def run_shard(self, specs, *, timeout_s=None):
        time.sleep(self.delay)
        return super().run_shard(specs, timeout_s=timeout_s)


def _make_service(tmp_path, **kwargs) -> SweepService:
    kwargs.setdefault("nprocs", NPROCS)
    kwargs.setdefault("scale", SCALE)
    kwargs.setdefault("journal_fsync", False)
    kwargs.setdefault("retry_base_delay", 0.01)
    return SweepService(data_dir=tmp_path / "svc", **kwargs)


def _wait_terminal(service: SweepService, job_id: str, timeout: float = 120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = service.queue.get(job_id)
        if record.state in ("done", "failed"):
            return record
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


class TestSweepServiceExecution:
    def test_retry_with_backoff_recovers(self, tmp_path):
        service = _make_service(tmp_path)
        service.backend = FlakyBackend(service.engine, failures=2)
        with service:
            record = service.submit({"sweep": tiny_sweep().to_dict(), "max_attempts": 3})
            final = _wait_terminal(service, record.id)
        assert final.state == "done"
        assert final.attempts == 2  # two failed attempts were journaled
        assert service.backend.calls == 3

    def test_retry_budget_exhausted_fails(self, tmp_path):
        service = _make_service(tmp_path)
        service.backend = FlakyBackend(service.engine, failures=99)
        with service:
            record = service.submit({"sweep": tiny_sweep().to_dict(), "max_attempts": 2})
            final = _wait_terminal(service, record.id)
        assert final.state == "failed"
        assert "RuntimeError" in final.error
        assert service.backend.calls == 2

    def test_job_timeout(self, tmp_path):
        service = _make_service(tmp_path)
        service.backend = SlowBackend(service.engine, delay=0.1)
        with service:
            # two problems → two shards; the deadline elapses after shard one
            spec = {"sweep": tiny_sweep(problems=["XENON2", "PRE2"]).to_dict(), "timeout_s": 0.05}
            record = service.submit(spec)
            final = _wait_terminal(service, record.id)
        assert final.state == "failed"
        assert final.error.startswith("timeout")

    def test_invalid_submission_rejected_before_queueing(self, tmp_path):
        service = _make_service(tmp_path)
        with pytest.raises(ValueError):
            service.submit({"sweep": {"problems": []}})
        assert len(service.queue) == 0
        service.stop()

    def test_results_cached_under_canonical_keys(self, tmp_path):
        service = _make_service(tmp_path)
        with service:
            record = service.submit(
                {"sweep": tiny_sweep(strategies=["mumps-workload", "memory-full"]).to_dict()}
            )
            final = _wait_terminal(service, record.id)
            assert final.state == "done"
            assert len(final.result_keys) == 2
            for key in final.result_keys:
                payload = service.results.get(key).to_dict()
                assert payload["problem"] == "XENON2"
            # a query for the same case is a pure store hit
            outcome = service.query({"problem": "XENON2", "strategy": "memory-full"})
            assert outcome.cached is True

    def test_crash_recovery_reruns_job(self, tmp_path):
        service = _make_service(tmp_path)
        # no start(): submit then simulate a crash mid-queue
        record = service.submit({"sweep": tiny_sweep().to_dict()})
        claimed = service.queue.claim(timeout=1)
        assert claimed.id == record.id  # "crashed" while running
        service.stop()

        revived = _make_service(tmp_path)
        assert revived.queue.recovered == 1
        with revived:
            final = _wait_terminal(revived, record.id)
        assert final.state == "done"


class Killed(BaseException):
    """A daemon death at a chosen point (escapes every ``except Exception``)."""


def _four_case_job() -> dict:
    # 2 problems x 2 strategies: 4 cases in 2 analysis groups
    return {
        "sweep": tiny_sweep(
            problems=["XENON2", "PRE2"], strategies=["mumps-workload", "memory-full"]
        ).to_dict()
    }


class TestGroupCommit:
    """A job's results become durable once per shard, as one segment."""

    def test_one_segment_per_shard(self, tmp_path):
        service = _make_service(tmp_path)
        with service:
            before = service.results.stats()["segments"]
            final = _wait_terminal(service, service.submit(_four_case_job()).id)
            assert final.state == "done" and final.shards_total == 2
            assert service.results.stats()["segments"] - before == 2
            assert set(final.result_keys) <= set(service.results.keys())
            # an inline miss stays one durable segment of its own
            service.query({"problem": "XENON2", "strategy": "hybrid(alpha=0.3)"})
            assert service.results.stats()["segments"] - before == 3

    def test_progress_lines_name_only_durable_keys(self, tmp_path):
        service = _make_service(tmp_path)
        progress = service.queue.progress
        named: list[list[bool]] = []

        def checked_progress(job_id, **fields):
            # a fresh reader of the directory sees what a restart would see
            durable = ResultStore(service.results.directory, fsync=False)
            named.append([key in durable for key in fields.get("result_keys", ())])
            progress(job_id, **fields)

        service.queue.progress = checked_progress
        with service:
            final = _wait_terminal(service, service.submit(_four_case_job()).id)
        assert final.state == "done"
        assert [len(keys) for keys in named] == [2, 2] and all(all(k) for k in named)

    def test_death_between_seal_and_progress_reruns_without_duplicates(self, tmp_path):
        service = _make_service(tmp_path)
        record = service.submit(_four_case_job())
        claimed = service.queue.claim(timeout=1)

        def die(job_id, **fields):
            raise Killed("daemon died after the shard's seal, before its progress line")

        service.queue.progress = die
        with pytest.raises(Killed):
            service._execute(claimed)
        assert service.results.stats() == {"rows": 2, "segments": 1, "replay_skipped": 0}
        service.stop()

        revived = _make_service(tmp_path)
        assert revived.queue.recovered == 1
        assert len(revived.results) == 2  # the first shard's seal survived
        with revived:
            final = _wait_terminal(revived, record.id)
            server = make_server(revived, quiet=True)
            server.serve_background()
            try:
                client = ServiceClient(f"http://127.0.0.1:{server.port}")
                listing = client.list_results().payload
            finally:
                server.shutdown()
                server.server_close()
        assert final.state == "done"
        keys = [str(k) for k in revived.results.table().keys]
        assert sorted(keys) == sorted(set(final.result_keys)) and len(keys) == 4
        assert listing["total"] == 4
        assert sorted(row["key"] for row in listing["results"]) == sorted(keys)


@contextlib.contextmanager
def _http(service: SweepService):
    """A loopback HTTP server over ``service`` for the block; yields a client."""
    server = make_server(service, quiet=True)
    server.serve_background()
    try:
        yield ServiceClient(f"http://127.0.0.1:{server.port}")
    finally:
        server.shutdown()
        server.server_close()


class TestStoreServedResults:
    """``GET /result`` hits come from the result store, whoever wrote it."""

    PARAMS = {"problem": "XENON2", "ordering": "metis", "strategy": "hybrid(alpha=0.6)"}

    def test_restart_turns_a_miss_into_an_identical_hit(self, tmp_path):
        service = _make_service(tmp_path)
        with _http(service) as client:
            miss = client.result(**self.PARAMS)
        service.stop()
        assert miss.cache == "miss"

        revived = _make_service(tmp_path)
        runs_before = dict(revived.engine.stage_runs)
        with _http(revived) as client:
            hit = client.result(**self.PARAMS, compute=False)
        revived.stop()
        assert hit.cache == "hit"
        assert hit.body == miss.body
        assert dict(revived.engine.stage_runs) == runs_before

    def test_sibling_daemon_serves_what_the_other_computed(self, tmp_path):
        # both open the data dir before anything is computed, so B's index
        # is stale and only its refresh-on-miss can find A's segment
        a = _make_service(tmp_path)
        b = _make_service(tmp_path)
        try:
            computed = a.query(self.PARAMS)
            served = b.query(self.PARAMS, compute=False)
        finally:
            a.stop()
            b.stop()
        assert computed.cached is False and served.cached is True
        assert served.key == computed.key
        assert canonical_json(served.payload) == canonical_json(computed.payload)
        assert not any(b.engine.stage_runs.values())

    def test_spelled_out_defaults_hit_the_stored_case(self, tmp_path):
        service = _make_service(tmp_path)
        try:
            computed = service.query({"problem": "XENON2", "strategy": "hybrid"})
            spelled = service.query(
                {
                    "problem": "XENON2",
                    "ordering": "METIS(leaf_size=64)",
                    "strategy": "hybrid(alpha=0.5,use_predictions=true)",
                },
                compute=False,
            )
            listing = service.list_results({})
        finally:
            service.stop()
        assert computed.cached is False and spelled.cached is True
        assert spelled.key == computed.key
        assert canonical_json(spelled.payload) == canonical_json(computed.payload)
        assert listing["total"] == 1 and [row["key"] for row in listing["results"]] == [computed.key]


# --------------------------------------------------------------------------- #
# end-to-end over a real socket
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A running daemon + HTTP server + client (module-shared, tiny scale)."""
    data_dir = tmp_path_factory.mktemp("service-e2e")
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


class TestServiceEndToEnd:
    def test_healthz(self, served):
        _, client = served
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["engine"] == {"nprocs": NPROCS, "scale": SCALE, "artifact_cache_dir": ""}
        assert set(payload["jobs"]) == {"queued", "running", "done", "failed"}

    def test_submit_poll_query_roundtrip(self, served):
        service, client = served
        record = client.submit(
            {
                "sweep": {
                    "problems": ["XENON2"],
                    "orderings": ["metis"],
                    "strategies": ["mumps-workload", "hybrid(alpha=0.3)"],
                }
            }
        )
        assert record["state"] == "queued" or record["state"] == "running"
        final = client.wait(str(record["id"]), timeout=120)
        assert final["state"] == "done"
        assert final["done"] == final["total"] == 2
        assert final["shards_done"] == final["shards_total"] == 1

        # the job populated the store: the query is a hit, not a recompute
        response = client.result(
            problem="XENON2", ordering="metis", strategy="hybrid(alpha=0.3)"
        )
        assert response.cached
        assert response.payload["result"]["strategy"] == "hybrid(alpha=0.3)"

    def test_repeated_query_is_cached_and_byte_identical(self, served):
        """The PR's acceptance criterion, end to end."""
        service, client = served
        # an alpha no earlier test queried: the first answer is a miss
        params = {"problem": "XENON2", "ordering": "metis", "strategy": "hybrid(alpha=0.7)"}

        first = client.result(**params)
        assert first.cache == "miss"  # computed through the pipeline

        runs_before = client.healthz()["stage_runs"]
        start = time.perf_counter()
        second = client.result(**params)
        latency = time.perf_counter() - start
        runs_after = client.healthz()["stage_runs"]

        assert second.cache == "hit"
        assert second.body == first.body  # byte-identical JSON
        assert runs_after == runs_before  # no pipeline stage re-executed
        assert latency < 0.25  # served from the store in milliseconds, not seconds

    def test_query_defaults_match_explicit_engine_values(self, served):
        _, client = served
        a = client.result(problem="XENON2", ordering="metis", strategy="memory-full")
        b = client.result(
            problem="XENON2", ordering="metis", strategy="memory-full",
            nprocs=NPROCS, scale=SCALE,
        )
        assert b.cache == "hit"
        assert a.payload["key"] == b.payload["key"]
        assert a.body == b.body

    def test_no_compute_miss_is_404(self, served):
        _, client = served
        with pytest.raises(ServiceError) as err:
            client.result(problem="XENON2", strategy="memory-basic", compute=False)
        assert err.value.status == 404

    def test_bad_requests_are_400(self, served):
        _, client = served
        with pytest.raises(ServiceError) as err:
            client.result(problem="XENON2", nprocs="eight")
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client.submit({"sweep": {"problems": []}})
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client._request("/results?bogus=1")
        assert err.value.status == 400

    def test_unknown_endpoints_and_jobs_are_404(self, served):
        _, client = served
        with pytest.raises(ServiceError) as err:
            client._request("/nope")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client.job("does-not-exist")
        assert err.value.status == 404

    def test_jobs_listing(self, served):
        _, client = served
        jobs = client.jobs()
        assert jobs, "earlier tests submitted jobs"
        assert {"id", "state", "done", "total"} <= set(jobs[0])

    def test_table_endpoint_cache_first(self, served):
        service, client = served
        first = client.table("table1", problems="XENON2,PRE2")
        second = client.table("table1", problems="XENON2,PRE2")
        assert first.payload["table"] == "table1"
        assert set(first.payload["rows"]) == {"XENON2", "PRE2"}
        assert second.cache == "hit"
        assert second.body == first.body

    def test_unknown_table_is_client_error(self, served):
        _, client = served
        with pytest.raises(ServiceError) as err:
            client.table("table99")
        assert err.value.status == 400
