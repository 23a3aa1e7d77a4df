"""Sweep-as-a-service: job queue daemon, sharded execution, HTTP API.

The service subsystem turns the one-shot sweep machinery
(:class:`~repro.session.Session` + the analysis pipeline) into a long-lived,
read-mostly server:

* :mod:`repro.service.jobs` — persistent job model (``queued → running →
  done/failed``) over a crash-safe on-disk journal;
* :mod:`repro.service.shards` — analysis-keyed shard partitioning behind the
  multi-host-ready :class:`ShardBackend` interface;
* :mod:`repro.service.daemon` — :class:`SweepService`, the daemon gluing the
  above to one engine and the :class:`~repro.results.ResultStore`, with
  retry/backoff/timeout handling;
* :mod:`repro.service.http` / :mod:`repro.service.client` — the stdlib
  HTTP/JSON API (``repro serve``) and its client (``repro submit/query``).

See ``docs/service.md`` for the API reference and deployment notes.
"""

from repro.service.client import QueryResponse, ServiceClient, ServiceError
from repro.service.daemon import QueryOutcome, SweepService, case_spec_from_query
from repro.service.http import ServiceHTTPServer, canonical_json, make_server
from repro.service.jobs import (
    JOB_STATES,
    JobJournal,
    JobQueue,
    JobRecord,
    JobSpec,
    JobStateError,
    new_job_id,
)
from repro.service.shards import (
    InlineShardBackend,
    ProcessShardBackend,
    ShardBackend,
    ShardTimeout,
    partition_shards,
)

__all__ = [
    "QueryResponse",
    "ServiceClient",
    "ServiceError",
    "QueryOutcome",
    "SweepService",
    "case_spec_from_query",
    "ServiceHTTPServer",
    "canonical_json",
    "make_server",
    "JOB_STATES",
    "JobJournal",
    "JobQueue",
    "JobRecord",
    "JobSpec",
    "JobStateError",
    "new_job_id",
    "InlineShardBackend",
    "ProcessShardBackend",
    "ShardBackend",
    "ShardTimeout",
    "partition_shards",
]
