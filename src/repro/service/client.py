"""Small stdlib client for the sweep service API.

Used by the ``repro submit`` / ``repro query`` CLI verbs, the end-to-end
tests and the serving benchmark suite.  Raw response bytes are kept around
(:attr:`QueryResponse.body`) so callers can assert byte-identical
re-queries without re-serializing anything.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from typing import Mapping, Optional

__all__ = ["ServiceError", "QueryResponse", "ServiceClient"]


class ServiceError(RuntimeError):
    """A non-2xx response from the service (carries status and message)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


@dataclass
class QueryResponse:
    """One HTTP response: parsed payload plus the exact bytes on the wire."""

    status: int
    payload: dict[str, object]
    body: bytes
    cache: Optional[str] = None  # "hit" | "miss" | None

    @property
    def cached(self) -> bool:
        return self.cache == "hit"


class ServiceClient:
    """Talk to a running ``repro serve`` daemon over HTTP/JSON."""

    def __init__(self, base_url: str, *, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    def _request(
        self, path: str, *, method: str = "GET", body: Optional[dict] = None
    ) -> QueryResponse:
        request = urllib.request.Request(self.base_url + path, method=method)
        data = None
        if body is not None:
            data = json.dumps(body).encode()
            request.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(request, data=data, timeout=self.timeout) as response:
                raw = response.read()
                return QueryResponse(
                    status=response.status,
                    payload=json.loads(raw),
                    body=raw,
                    cache=response.headers.get("X-Repro-Cache"),
                )
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                message = json.loads(raw).get("error", raw.decode(errors="replace"))
            except (json.JSONDecodeError, AttributeError):
                message = raw.decode(errors="replace")
            raise ServiceError(exc.code, message) from None

    # ------------------------------------------------------------------ #
    def healthz(self) -> dict[str, object]:
        return self._request("/healthz").payload

    def submit(self, spec: Mapping[str, object]) -> dict[str, object]:
        """POST a JobSpec dict; returns the created job record."""
        return self._request("/jobs", method="POST", body=dict(spec)).payload

    def job(self, job_id: str) -> dict[str, object]:
        return self._request(f"/jobs/{urllib.parse.quote(job_id)}").payload

    def jobs(self) -> list[dict[str, object]]:
        return self._request("/jobs").payload["jobs"]  # type: ignore[return-value]

    def wait(self, job_id: str, *, timeout: float = 300.0, poll: float = 0.1) -> dict[str, object]:
        """Poll until the job reaches a terminal state (or raise TimeoutError)."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["state"] in ("done", "failed"):
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']!r} after {timeout:.0f}s "
                    f"({record['done']}/{record['total']} cases)"
                )
            time.sleep(poll)

    def result(self, *, compute: bool | None = None, **params: object) -> QueryResponse:
        """GET /result — one case, from the store or computed (problem=... required)."""
        query = {k: str(v) for k, v in params.items() if v is not None}
        if compute is not None:
            query["compute"] = "true" if compute else "false"
        return self._request("/result?" + urllib.parse.urlencode(query))

    def list_results(
        self,
        *,
        limit: int | None = None,
        cursor: int | None = None,
        fields: str | None = None,
        **filters: object,
    ) -> QueryResponse:
        """GET /results — the paginated columnar listing.

        ``filters`` are the column predicates (``problem=``, ``ordering=``,
        ``strategy=``, ``split=``, ``nprocs=``).  The query string is built
        in sorted order, so the same logical request is always the same URL
        (and therefore the same bytes back).
        """
        query = {k: str(v) for k, v in filters.items() if v is not None}
        if limit is not None:
            query["limit"] = str(limit)
        if cursor is not None:
            query["cursor"] = str(cursor)
        if fields:
            query["fields"] = fields
        return self._request("/results?" + urllib.parse.urlencode(sorted(query.items())))

    def leaderboard(self, job: str | None = None) -> QueryResponse:
        """GET /leaderboard — the latest (or one job's) tune leaderboard."""
        suffix = ("?" + urllib.parse.urlencode({"job": job})) if job else ""
        return self._request("/leaderboard" + suffix)

    def table(self, name: str, **params: object) -> QueryResponse:
        query = {k: str(v) for k, v in params.items() if v not in (None, "")}
        suffix = ("?" + urllib.parse.urlencode(query)) if query else ""
        return self._request(f"/tables/{urllib.parse.quote(name)}" + suffix)
