"""HTTP/JSON API over a :class:`~repro.service.daemon.SweepService`.

Stdlib only (:class:`http.server.ThreadingHTTPServer`) — no new hard
dependencies.  Endpoints:

========================  ==========================================================
``GET  /healthz``          liveness + queue/store/engine counters
``POST /jobs``             submit a sweep job (JSON body: a ``JobSpec`` dict);
                           answers ``503`` with a ``Retry-After`` header when
                           the queue is at its ``max_pending`` depth
``GET  /jobs``             list jobs (most recent first)
``GET  /jobs/<id>``        one job's status/progress
``GET  /results``          paginated listing from the columnar result store
                           (filters ``problem``/``ordering``/``strategy``/
                           ``split``/``nprocs``; ``limit``/``cursor``
                           paginate; ``fields`` projects columns; the body
                           carries a ``next`` link)
``GET  /result``           one case result from the store, computed on miss
                           (query params: ``problem`` required; ``ordering``,
                           ``strategy``, ``nprocs``, ``scale``, ``split``,
                           ``split_threshold``, ``compute=false`` optional)
``GET  /tables/<name>``    one of the paper's tables, stored once computed
                           (``problems``/``orderings`` comma-list params)
``GET  /leaderboard``      the latest tune job's leaderboard artifact
                           (``job=<id>`` selects a specific tune job;
                           404 until a tune job has finished)
========================  ==========================================================

Responses are JSON with sorted keys and fixed separators
(:func:`repro.serialize.canonical_json`), so the same logical answer is
always the same bytes — a re-query, a replayed store or a resumed
sweep produces byte-identical pages.  Whether a stored answer was served
is reported out-of-band in the ``X-Repro-Cache: hit|miss`` header (keeping it
out of the body is what makes the bytes repeatable).
"""

from __future__ import annotations

import json
import re
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING
from urllib.parse import parse_qsl, urlsplit

from repro.serialize import canonical_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.service.daemon import SweepService

__all__ = ["ServiceHTTPServer", "make_server", "canonical_json"]

#: maximum accepted request body (a job submission is small; cut off abuse).
_MAX_BODY = 4 * 1024 * 1024

_JOB_PATH = re.compile(r"^/jobs/(?P<id>[A-Za-z0-9_.\-]+)$")
_TABLE_PATH = re.compile(r"^/tables/(?P<name>[A-Za-z0-9_.\-]+)$")


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`SweepService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: "SweepService", *, quiet: bool = False):
        super().__init__(address, _Handler)
        self.service = service
        self.quiet = quiet

    @property
    def port(self) -> int:
        return self.server_address[1]

    def serve_background(self) -> threading.Thread:
        """Serve on a daemon thread (tests and the bench suite use this)."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-http", daemon=True
        )
        thread.start()
        return thread


def make_server(
    service: "SweepService", *, host: str = "127.0.0.1", port: int = 0, quiet: bool = False
) -> ServiceHTTPServer:
    """Bind the API server (``port=0`` picks a free ephemeral port)."""
    return ServiceHTTPServer((host, port), service, quiet=quiet)


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer  # narrowed for the type checker
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def log_message(self, fmt: str, *args) -> None:  # pragma: no cover - cosmetic
        if not self.server.quiet:
            sys.stderr.write(
                "repro serve: %s - %s\n" % (self.address_string(), fmt % args)
            )

    def _send(self, status: int, payload: object, *, headers: dict[str, str] | None = None) -> None:
        body = canonical_json(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send(status, {"error": message})

    def _params(self) -> dict[str, str]:
        query = urlsplit(self.path).query
        return dict(parse_qsl(query, keep_blank_values=True))

    # ------------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path.rstrip("/") or "/"
        service = self.server.service
        try:
            if path == "/healthz":
                self._send(200, service.stats())
            elif path == "/jobs":
                self._send(200, {"jobs": [r.to_dict() for r in service.queue.list()]})
            elif match := _JOB_PATH.match(path):
                try:
                    record = service.queue.get(match.group("id"))
                except KeyError:
                    self._error(404, f"no such job {match.group('id')!r}")
                    return
                self._send(200, record.to_dict())
            elif path == "/results":
                self._results_list()
            elif path == "/result":
                self._result()
            elif match := _TABLE_PATH.match(path):
                self._table(match.group("name"))
            elif path == "/leaderboard":
                self._leaderboard()
            else:
                self._error(404, f"no such endpoint {path!r}")
        except ValueError as exc:
            self._error(400, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path.rstrip("/")
        if path != "/jobs":
            self._error(404, f"no such endpoint {path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._error(400, "bad Content-Length")
            return
        if length <= 0 or length > _MAX_BODY:
            self._error(400, f"request body must be 1..{_MAX_BODY} bytes")
            return
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            self._error(400, f"request body is not valid JSON: {exc}")
            return
        if not isinstance(payload, dict):
            self._error(400, "request body must be a JSON object (a JobSpec)")
            return
        from repro.service.daemon import QueueSaturated

        try:
            record = self.server.service.submit(payload)
        except QueueSaturated as exc:
            self._send(
                503,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": str(int(exc.retry_after))},
            )
            return
        except (ValueError, KeyError, TypeError) as exc:
            self._error(400, str(exc))
            return
        self._send(202, record.to_dict(), headers={"Location": f"/jobs/{record.id}"})

    # ------------------------------------------------------------------ #
    def _result(self) -> None:
        params = self._params()
        compute = params.pop("compute", "true").strip().lower() not in ("0", "false", "no")
        try:
            outcome = self.server.service.query(params, compute=compute)
        except KeyError:
            self._error(404, "result not cached (and compute=false was requested)")
            return
        self._send(
            200,
            {"key": outcome.key, "result": outcome.payload},
            headers={"X-Repro-Cache": "hit" if outcome.cached else "miss"},
        )

    def _results_list(self) -> None:
        self._send(200, self.server.service.list_results(self._params()))

    def _leaderboard(self) -> None:
        params = self._params()
        unknown = set(params) - {"job"}
        if unknown:
            self._error(400, f"unknown query parameter(s) {sorted(unknown)}")
            return
        try:
            payload = self.server.service.leaderboard(params.get("job"))
        except KeyError as exc:
            self._error(404, str(exc.args[0]) if exc.args else "no leaderboard yet")
            return
        self._send(200, payload)

    def _table(self, name: str) -> None:
        params = self._params()
        unknown = set(params) - {"problems", "orderings"}
        if unknown:
            self._error(400, f"unknown query parameter(s) {sorted(unknown)}")
            return
        problems = [p for p in params.get("problems", "").split(",") if p.strip()]
        orderings = [o for o in params.get("orderings", "").split(",") if o.strip()]
        outcome = self.server.service.table(name, problems=problems, orderings=orderings)
        self._send(
            200,
            {"key": outcome.key, **outcome.payload},
            headers={"X-Repro-Cache": "hit" if outcome.cached else "miss"},
        )
