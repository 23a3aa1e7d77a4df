"""service-mixed: reads beside writes on the HTTP service.

``repro serve`` runs as a subprocess on a fresh data dir, with journal fsync
on as shipped, one job worker and in-process shards.  One caller sends one
request at a time (the server speaks HTTP/1.0, so each request is its own
connection and only one is ever open).  Set-up warms the analyses with one
query per (problem, ordering, nprocs).  The timed mix, per 100 ops:

* 35 ``GET /result`` on keys already served (read, cache hit);
* 35 ``GET /result`` on keys never seen, from seeded ``hybrid(alpha=…)``
  and nprocs draws (write: inline simulate, cache put, fsync'd store append);
* 10 filtered ``GET /results`` pages (columnar read);
* 20 ``POST /jobs`` of a 4-case sweep, polled to ``done`` (journal, shard
  and store writes).

The mix is synthetic: no observed or documented load backs these fractions.
``README.md`` gives the basis for each.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional
from urllib.parse import urlencode

from common import (
    ANALYSIS_STAGES,
    Op,
    Phase,
    SETUP_REPEATS,
    RunResult,
    Timed,
    Tracer,
    env_with_src,
    finish_run,
    median_setup,
    passes_for,
    run_phase,
    vm_hwm_mb,
)

PAIRS = (("XENON2", "metis"), ("TWOTONE", "amd"), ("BMWCRA_1", "amf"), ("MSDOOR", "pord"))
#: the server's default processor count, and the counts cases draw from
SERVER_NPROCS = 32
NPROCS = (16, 32, 64)
#: ops of each class per 100
MIX = {"hit": 35, "miss": 35, "list": 10, "job": 20}
#: hits among ``GET /result`` requests, by design
READ_FRACTION = MIX["hit"] / (MIX["hit"] + MIX["miss"])
LIMITS = (10, 20, 50)
START_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 60.0
#: job polling interval; polls compete with the job for the server's interpreter
POLL_S = 0.01
#: nominal seconds of 200 ops; ``--seconds`` maps to a pass count with it
PASS_S = 3.5


OPS_PER_PASS = 200
#: analysis scale of the server; the self-test runs smaller
SCALE = 0.3


# --------------------------------------------------------------------------- #
# the server process
# --------------------------------------------------------------------------- #
class Server:
    """One ``repro serve`` subprocess on its own data dir."""

    def __init__(self, root: Path, work: Path, scale: float, name: str) -> None:
        self.dir = work / name
        self.dir.mkdir()
        self.log_path = self.dir / "serve.log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--data-dir", str(self.dir / "data"),
                "--nprocs", str(SERVER_NPROCS), "--scale", repr(scale),
                "--workers", "1", "--jobs", "1", "--quiet",
            ],
            cwd=root, env=env_with_src(root), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._log,
        )
        try:
            self.port = self._wait_for_port()
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = re.search(rb"listening on http://[\d.]+:(\d+)", self.log_path.read_bytes())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"repro serve did not start:\n{self.log_path.read_text()}")

    def request(self, method: str, path: str, body: Optional[dict] = None):
        """One request on its own connection: (status, cache header, body bytes)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            payload = None if body is None else json.dumps(body).encode()
            headers = {} if body is None else {"Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, response.getheader("X-Repro-Cache"), response.read()
        finally:
            conn.close()

    def healthz(self) -> dict:
        status, _, body = self.request("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        """Interrupt the server, wait for it to exit (kill after 15 s)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def result_path(problem: str, ordering: str, strategy: str, nprocs: int) -> str:
    query = {"problem": problem, "ordering": ordering, "strategy": strategy, "nprocs": nprocs}
    return "/result?" + urlencode(query)


# --------------------------------------------------------------------------- #
# the op list
# --------------------------------------------------------------------------- #
def warm_queries() -> list[tuple[str, str, str, int]]:
    return [(p, o, "memory-full", n) for p, o in PAIRS for n in NPROCS]


def make_ops(seed: int, passes: int) -> list[Op]:
    """The seeded mix; hits name queries served earlier in the list (or in set-up)."""
    rng = random.Random(seed)
    n_ops = OPS_PER_PASS * passes
    kinds = [kind for kind, share in MIX.items() for _ in range(share * n_ops // 100)]
    rng.shuffle(kinds)
    served = warm_queries()
    alphas: set[str] = set()

    def alpha() -> str:
        while True:
            value = f"{rng.random():.6f}"
            if value not in alphas:
                alphas.add(value)
                return f"hybrid(alpha={value})"

    def balanced(items, count):
        out = []
        while len(out) < count:
            block = list(items)
            rng.shuffle(block)
            out.extend(block)
        return iter(out)

    miss_pairs = balanced(PAIRS, kinds.count("miss"))
    miss_nprocs = balanced(NPROCS, kinds.count("miss"))
    job_pairs = balanced(PAIRS, kinds.count("job"))
    ops: list[Op] = []
    for kind in kinds:
        if kind == "hit":
            ops.append(Op("hit", {"query": rng.choice(served)}))
        elif kind == "miss":
            problem, ordering = next(miss_pairs)
            query = (problem, ordering, alpha(), next(miss_nprocs))
            served.append(query)
            ops.append(Op("miss", {"query": query}))
        elif kind == "list":
            problem = rng.choice(PAIRS)[0]
            ops.append(Op("list", {"problem": problem, "limit": rng.choice(LIMITS)}))
        else:
            problem, ordering = next(job_pairs)
            sweep = {
                "problems": [problem],
                "orderings": [ordering],
                "strategies": [alpha(), alpha()],
                "nprocs": sorted(rng.sample(NPROCS, 2)),
            }
            ops.append(Op("job", {"sweep": sweep}))
    return ops


# --------------------------------------------------------------------------- #
# the workload
# --------------------------------------------------------------------------- #
@dataclass
class State:
    """A running server plus what the caller knows it holds."""

    server: Server
    bodies: dict  # query -> body bytes of its first answer
    keys: dict  # problem -> result keys in the store


class ServiceMixed:
    def __init__(self, root: Path, work: Path, scale: float = SCALE) -> None:
        self.scale = scale
        self.root = root
        self.work = work
        self.state: Optional[State] = None
        self._servers = 0
        self.rss_mb = 0.0
        self.hits = 0

    def setup(self) -> State:
        """Start a server on a fresh data dir and warm every analysis."""
        self._servers += 1
        server = Server(self.root, self.work, self.scale, f"server-{self._servers}")
        state = State(server, {}, {})
        try:
            for query in warm_queries():
                status, _, body = server.request("GET", result_path(*query))
                if status != 200:
                    raise RuntimeError(f"warm-up query {query} answered {status}")
                self._remember(state, query, body)
        except BaseException:
            server.stop()
            raise
        return state

    @staticmethod
    def teardown(state: State) -> None:
        state.server.stop()

    @staticmethod
    def _remember(state: State, query, body: bytes) -> bool:
        """Record a first answer; False when its key was already in the store."""
        state.bodies[query] = body
        key = json.loads(body)["key"]
        known = state.keys.setdefault(query[0], set())
        fresh = key not in known
        known.add(key)
        return fresh

    def execute(self, op: Op, tracer: Optional[Tracer]):
        server = self.state.server
        if tracer is None:
            return self._call(server, op)
        with tracer.span(f"service.{op.kind}"):
            return self._call(server, op)

    @staticmethod
    def _call(server: Server, op: Op):
        if op.kind in ("hit", "miss"):
            return server.request("GET", result_path(*op.args["query"]))
        if op.kind == "list":
            query = {"problem": op.args["problem"], "limit": op.args["limit"]}
            return server.request("GET", "/results?" + urlencode(query))
        submitted = time.time()
        status, _, body = server.request("POST", "/jobs", {"sweep": op.args["sweep"]})
        if status != 202:
            return status, None, body
        path = f"/jobs/{json.loads(body)['id']}"
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while True:
            time.sleep(POLL_S)
            status, _, body = server.request("GET", path)
            if status != 200:
                return status, None, body
            record = json.loads(body)
            if record["state"] in ("done", "failed"):
                # the job lasted until the server stamped it finished; how
                # long the caller took to notice is not the program's time
                return Timed((status, None, body), record["finished_at"] - submitted)
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {path} not done after {JOB_TIMEOUT_S}s")

    def check(self, index: int, op: Op, output) -> bool:
        """Status, cache header and body of every answer; updates what the store holds."""
        status, cache, body = output
        state = self.state
        problems = []
        if status != 200:
            problems.append(f"status {status}")
        elif op.kind == "hit":
            self.hits += cache == "hit"
            if cache != "hit":
                problems.append(f"X-Repro-Cache {cache!r} on a served key")
            if body != state.bodies[op.args["query"]]:
                problems.append("body differs from the first answer")
        elif op.kind == "miss":
            self.hits += cache == "hit"
            query = op.args["query"]
            result = json.loads(body)["result"]
            if cache != "miss":
                problems.append(f"X-Repro-Cache {cache!r} on a new key")
            if (result["problem"], result["nprocs"]) != (query[0], query[3]):
                problems.append("answer is for another case")
            if not self._remember(state, query, body):
                problems.append("key was already in the store")
        elif op.kind == "list":
            page = json.loads(body)
            rows = page["results"]
            expected = len(state.keys.get(op.args["problem"], ()))
            order = [(r["problem"], r["ordering"], r["strategy"], r["split"], r["nprocs"], r["key"]) for r in rows]
            if page["total"] != expected:
                problems.append(f"total {page['total']}, expected {expected}")
            if len(rows) != min(op.args["limit"], expected) or page["count"] != len(rows):
                problems.append(f"{len(rows)} rows on the page")
            if order != sorted(order):
                problems.append("rows not in canonical order")
            if any(r["key"] not in state.keys.get(op.args["problem"], ()) for r in rows):
                problems.append("row with an unknown key or another problem")
        else:
            record = json.loads(body)
            keys = record.get("result_keys", [])
            known = state.keys.setdefault(op.args["sweep"]["problems"][0], set())
            if record["state"] != "done":
                problems.append(f"job {record['state']}: {record.get('error')}")
            if len(keys) != 4 or any(k in known for k in keys):
                problems.append("job did not store 4 new results")
            known.update(keys)
        for problem in problems:
            print(f"op {index} ({op.kind}): {problem}", file=sys.stderr)
        return not problems

    def phase(self, ops: list[Op], tracer: Optional[Tracer] = None) -> tuple[Phase, dict]:
        server = self.state.server
        before = server.healthz()
        self.hits = 0
        phase = run_phase(ops, self.execute, tracer=tracer, after=self.check, keep_outputs=False)
        self.rss_mb = vm_hwm_mb(server.proc.pid)
        after = server.healthz()
        runs_before, runs_after = before["stage_runs"], after["stage_runs"]

        def delta(stage: str) -> int:
            return runs_after.get(stage, 0) - runs_before.get(stage, 0)

        reads = sum(op.kind in ("hit", "miss") for op in ops)
        counts = {
            "pipeline.analysis_runs": sum(delta(s) for s in ANALYSIS_STAGES),
            "pipeline.simulate_runs": delta("simulate"),
            "results.rows": after["results"]["rows"] - before["results"]["rows"],
            "service.hit_ratio": self.hits / reads,
        }
        return phase, counts


#: per-layer metric of each op class: its median latency in the traced pass
CLASS_METRICS = {
    "hit": "service.result_hit_ms",
    "miss": "service.result_miss_ms",
    "list": "service.list_ms",
    "job": "service.job_ms",
}


def class_medians_ms(phase: Phase) -> dict[str, float]:
    return {
        metric: statistics.median(
            lat * 1e3 for op, lat in zip(phase.ops, phase.latencies) if op.kind == kind
        )
        for kind, metric in CLASS_METRICS.items()
    }


def run(
    *, seed: int, seconds: float, trace: bool, root: Path, work: Path, trace_path: Path,
    **_,
) -> RunResult:
    bench = ServiceMixed(root, work)
    try:
        if trace:
            ops = make_ops(seed, 1)
            phases = []
            for tracer in (None, Tracer()):
                bench.state = bench.setup()
                phase, counts = bench.phase(ops, tracer)
                phases.append(phase)
                bench.teardown(bench.state)
                bench.state = None
            setup_s = 0.0
            layer_extra = class_medians_ms(phases[1])
        else:
            layer_extra = {}
            setup_s, bench.state = median_setup(bench.setup, SETUP_REPEATS, bench.teardown)
            ops = make_ops(seed, passes_for(seconds, PASS_S, 1))
            phase, counts = bench.phase(ops)
            phases = [phase]
    finally:
        if bench.state is not None:
            bench.teardown(bench.state)
    return finish_run(
        trace=trace,
        phases=phases,
        setup_s=setup_s,
        rss_mb=bench.rss_mb,
        counts=counts,
        trace_path=trace_path,
        layer_extra=layer_extra,
    )
