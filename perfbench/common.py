"""Shared machinery of the benchmark: op loop, spans, statistics, output.

Every workload runs a fixed, seeded op list to completion from one caller
(closed loop).  An op is timed from just before its first call into the
program to just after its last one; the benchmark's own bookkeeping and the
output checks run between ops, untimed.  ``ops_per_s`` is therefore ops over
the summed op wall time.

Spans are recorded only in the traced phase, by the benchmark itself around
its calls into public functions of each layer.  They live in memory and are
written out once the run ends.
"""

from __future__ import annotations

import heapq
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

#: analysis stages of the pipeline, in dependency order, with the span each
#: gets in a traced op (the ordering span is suffixed with the ordering name).
STAGE_SPANS = (
    ("pattern", "sparse.build"),
    ("ordering", "ordering"),
    ("tree", "symbolic.tree"),
    ("split", "symbolic.split"),
    ("mapping", "mapping"),
)
ANALYSIS_STAGES = tuple(stage for stage, _ in STAGE_SPANS)

#: a percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
#: complete set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


# --------------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------------- #
@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    attrs: dict

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder: (name, start, end, parent span, op id)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        parent = self._open[-1] if self._open else -1
        record = Span(name, time.perf_counter(), 0.0, parent, self.op, attrs)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus what its child spans cover."""
        out = [s.dur for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.dur
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op, **s.attrs}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows))


def layer_of(name: str) -> str:
    """Layer a span belongs to: the module named by its prefix."""
    if name in ("op", "session.open"):
        return "pipeline"
    return name.split(".", 1)[0]


# --------------------------------------------------------------------------- #
# machine speed
# --------------------------------------------------------------------------- #
#: median seconds of one calibration sample on the machine the benchmark was
#: written on (a shared 2-vCPU Xeon VM at 2.0 GHz); times are reported at its speed
REFERENCE_SAMPLE_S = 0.003
#: calibration samples taken before and after each set-up repetition
SETUP_SAMPLES = 15
#: an op's time is scaled by the median of the samples this many ops either side
LOCAL_SAMPLES = 5

_CAL_SMALL = np.random.default_rng(0).random(500)
_CAL_BIG = np.random.default_rng(1).random(50_000)


def calibration_sample() -> float:
    """Seconds of a fixed piece of work that uses no code of the program.

    Interpreter arithmetic, a heap and a dict, tuple allocation, small and
    large numpy calls: the kinds of work the program does.  The host's speed
    drifts by a third over minutes; dividing op times by this sample's
    current time (relative to ``REFERENCE_SAMPLE_S``) takes the drift out,
    while a change to the program leaves the sample untouched.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(8000):
        total += i * i % 7
    heap: list = []
    index = {}
    for j in range(800):
        heapq.heappush(heap, ((j * 7919) % 801, j))
        index[j] = (j, j)
    while heap:
        heapq.heappop(heap)
    total += len({str(i): (i, float(i)) for i in range(1500)})
    for _ in range(20):
        np.cumsum(_CAL_SMALL)
        np.maximum(_CAL_SMALL, 0.5).argmax()
    np.sort(_CAL_BIG).sum()
    return time.perf_counter() - t0


def slowdown(samples: Sequence[float]) -> float:
    """How much slower than the reference machine the host ran, over ``samples``."""
    return statistics.median(samples) / REFERENCE_SAMPLE_S


# --------------------------------------------------------------------------- #
# op loop
# --------------------------------------------------------------------------- #
@dataclass
class Op:
    """One op of a workload: its class (``kind``) and its inputs."""

    kind: str
    args: dict = field(default_factory=dict)


@dataclass
class Timed:
    """An op's output together with its latency, for an op that measures the
    latency itself rather than by the wall time of its ``execute`` call."""

    output: object
    seconds: float


@dataclass
class Phase:
    """What one pass over an op list produced.

    ``latencies`` are wall seconds as measured; ``speed`` holds the
    calibration samples taken between the ops.
    """

    ops: list[Op]
    latencies: list[float]
    outputs: list[object]
    failed: set[int]
    speed: list[float]
    tracer: Optional[Tracer] = None

    @property
    def slowdown(self) -> float:
        return slowdown(self.speed)

    def reference_latencies(self) -> list[float]:
        """Each op's latency at the reference machine's speed, by the host's
        slowdown over the calibration samples taken around it."""
        w = LOCAL_SAMPLES
        return [
            lat / slowdown(self.speed[max(0, i - w) : i + w + 1])
            for i, lat in enumerate(self.latencies)
        ]

    @property
    def ops_per_s(self) -> float:
        """Ops per second at the reference machine's speed."""
        return len(self.ops) / sum(self.reference_latencies())

    @property
    def raw_ops_per_s(self) -> float:
        return len(self.ops) / sum(self.latencies)


def run_phase(
    ops: Sequence[Op],
    execute: Callable[[Op, Optional[Tracer]], object],
    *,
    tracer: Optional[Tracer] = None,
    after: Optional[Callable[[int, Op, object], bool]] = None,
    keep_outputs: bool = True,
) -> Phase:
    """Run ``ops`` in order, timing each ``execute(op, tracer)`` call.

    ``after(index, op, output)`` runs untimed right after each op and returns
    whether the op's output is correct.  An op that raises counts as failed.
    With ``keep_outputs=False`` an output is dropped once ``after`` saw it.
    One calibration sample is taken after each op, outside its timing.
    """
    latencies: list[float] = []
    outputs: list[object] = []
    failed: set[int] = set()
    speed: list[float] = []
    for i, op in enumerate(ops):
        output: object = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output = execute(op, None)
            else:
                tracer.op = i
                with tracer.span("op", kind=op.kind):
                    output = execute(op, tracer)
        except Exception as exc:  # a failed op is counted, the run goes on
            latencies.append(time.perf_counter() - t0)
            failed.add(i)
            print(f"op {i} ({op.kind}) failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            latencies.append(time.perf_counter() - t0)
            if isinstance(output, Timed):
                latencies[-1] = output.seconds
                output = output.output
            if after is not None and not after(i, op, output):
                failed.add(i)
        outputs.append(output if keep_outputs else None)
        speed.append(calibration_sample())
    return Phase(list(ops), latencies, outputs, failed, speed, tracer)


def passes_for(seconds: float, pass_s: float, min_passes: int) -> int:
    """Op-list length in passes: fixed for a given ``--seconds``, never a time budget."""
    return max(min_passes, round(seconds / pass_s))


# --------------------------------------------------------------------------- #
# statistics and metrics
# --------------------------------------------------------------------------- #
def quantile(values: Sequence[float], q: float) -> float:
    """Inclusive-method quantile (``q`` in (0, 1)) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def end_to_end(phase: Phase, setup_s: float, rss_mb: float) -> dict[str, tuple[float, str]]:
    """The five end-to-end metrics of an untraced phase; times at reference speed."""
    lat_ms = [x * 1e3 for x in phase.reference_latencies()]
    raw_ms = [x * 1e3 for x in phase.latencies]
    print(
        f"host slowdown {phase.slowdown:.4f}; as measured: ops_per_s {phase.raw_ops_per_s:.4f}"
        f" op_p50_ms {statistics.median(raw_ms):.4f} op_p90_ms {quantile(raw_ms, 0.9):.4f}",
        file=sys.stderr,
    )
    if len(lat_ms) < 10 * TAIL_SAMPLES:
        raise ValueError(f"{len(lat_ms)} ops put fewer than {TAIL_SAMPLES} samples beyond p90")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (quantile(lat_ms, 0.9), "ms"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


#: every per-layer metric and its unit; one whose spans a workload lacks reads 0.
PER_LAYER_UNITS = {
    "sparse.build_ms": "ms",
    "ordering.ms": "ms",
    "ordering.share": "ratio",
    "ordering.metis_ms": "ms",
    "ordering.amd_ms": "ms",
    "ordering.amf_ms": "ms",
    "ordering.pord_ms": "ms",
    "symbolic.tree_ms": "ms",
    "symbolic.share": "ratio",
    "mapping.ms": "ms",
    "runtime.cold_sim_ms": "ms",
    "pipeline.cold_self_ms": "ms",
    "symbolic.factor_entries": "count",
    "symbolic.nodes": "count",
    "runtime.sim_ms": "ms",
    "runtime.sim_p90_ms": "ms",
    "runtime.sim_ms.nprocs16": "ms",
    "runtime.sim_ms.nprocs32": "ms",
    "runtime.sim_ms.nprocs64": "ms",
    "faults.replica_ms": "ms",
    "pipeline.warm_self_ms": "ms",
    "pipeline.analysis_runs": "count",
    "runtime.sims": "count",
    "runtime.messages": "count",
    "runtime.slave_selections": "count",
    "service.result_hit_ms": "ms",
    "service.result_miss_ms": "ms",
    "service.list_ms": "ms",
    "service.job_ms": "ms",
    "service.hit_ratio": "ratio",
    "pipeline.simulate_runs": "count",
    "results.rows": "count",
    "bench.trace_overhead": "ratio",
}

def layer_self_times(tracer: Tracer) -> dict[str, float]:
    """Total self time of each layer's spans, in seconds."""
    out: dict[str, float] = {}
    for s, t in zip(tracer.spans, tracer.self_times()):
        layer = layer_of(s.name)
        out[layer] = out.get(layer, 0.0) + t
    return out


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Each layer's share of the summed op wall time."""
    op_total = sum(s.dur for s in tracer.spans if s.name == "op")
    return {layer: t / op_total for layer, t in layer_self_times(tracer).items()}


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer timings of a traced phase (see ``README.md`` for each)."""
    spans = tracer.spans
    self_t = tracer.self_times()
    ops = [s for s in spans if s.name == "op"]
    n_ops = len(ops)
    layer_self = layer_self_times(tracer)
    shares = layer_shares(tracer)

    def durs(pred) -> list[float]:
        return [s.dur * 1e3 for s in spans if pred(s)]

    def per_op_ms(layer: str) -> float:
        return layer_self.get(layer, 0.0) * 1e3 / n_ops

    out = {
        "sparse.build_ms": per_op_ms("sparse"),
        "ordering.ms": per_op_ms("ordering"),
        "ordering.share": shares.get("ordering", 0.0),
        "symbolic.tree_ms": per_op_ms("symbolic"),
        "symbolic.share": shares.get("symbolic", 0.0),
        "mapping.ms": per_op_ms("mapping"),
        "runtime.cold_sim_ms": mean(durs(lambda s: s.name == "runtime.cold_sim")),
    }
    for name in ("metis", "amd", "amf", "pord"):
        out[f"ordering.{name}_ms"] = mean(durs(lambda s, n=name: s.name == f"ordering.{n}"))

    # pipeline self time of a cold op: the op itself (session set-up)
    # outside every child span
    cold_ops = {s.op for s in ops if s.attrs.get("kind") == "cold"}
    cold_self = [
        t for s, t in zip(spans, self_t) if s.op in cold_ops and layer_of(s.name) == "pipeline"
    ]
    out["pipeline.cold_self_ms"] = sum(cold_self) * 1e3 / len(cold_ops) if cold_ops else 0.0

    sims = durs(lambda s: s.name == "runtime.sim")
    out["runtime.sim_ms"] = mean(sims)
    out["runtime.sim_p90_ms"] = quantile(sims, 0.9) if len(sims) >= 2 else 0.0
    for nprocs in (16, 32, 64):
        out[f"runtime.sim_ms.nprocs{nprocs}"] = mean(
            durs(lambda s, n=nprocs: s.name == "runtime.sim" and s.attrs.get("nprocs") == n)
        )
    batches = [s for s in spans if s.name == "faults.batch"]
    runs = sum(s.attrs["runs"] for s in batches)
    out["faults.replica_ms"] = sum(s.dur for s in batches) * 1e3 / runs if runs else 0.0
    return out


def per_layer(
    untraced: Phase, traced: Phase, counts: dict[str, float], extra: dict[str, float]
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced run; ``extra`` holds the ones a
    workload derives beyond its spans."""
    assert traced.tracer is not None
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    values.update(span_metrics(traced.tracer))
    values.update(counts)
    values.update(extra)
    values["bench.trace_overhead"] = untraced.ops_per_s / traced.ops_per_s
    return {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


# --------------------------------------------------------------------------- #
# output
# --------------------------------------------------------------------------- #
@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    counts: dict[str, float]

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


def finish_run(
    *,
    trace: bool,
    phases: Sequence[Phase],
    setup_s: float,
    rss_mb: float,
    counts: dict[str, float],
    trace_path: Path,
    layer_extra: Optional[dict[str, float]] = None,
) -> RunResult:
    """Fold the phases of one run into its result.

    Untraced runs have one phase; traced runs an untraced and a traced pass
    over the same op list (their ratio is ``bench.trace_overhead``).
    """
    attempted = sum(len(p.ops) for p in phases)
    failed = sum(len(p.failed) for p in phases)
    if trace:
        untraced, traced = phases
        traced.tracer.write(trace_path)
        metrics = per_layer(untraced, traced, counts, layer_extra or {})
    else:
        (phase,) = phases
        metrics = end_to_end(phase, setup_s, rss_mb)
    return RunResult(attempted, failed, metrics, counts)


def median_setup(
    setup: Callable[[], object],
    repeats: int,
    teardown: Optional[Callable[[object], None]] = None,
) -> tuple[float, object]:
    """Run ``setup`` ``repeats`` times; median seconds and the last result.

    Each repetition starts from nothing: the previous one's state is torn
    down (untimed) and dropped before the next begins.  Each repetition's
    time is taken at reference speed, from calibration samples just before
    and just after it.
    """
    times: list[float] = []
    raw: list[float] = []
    state: object = None
    for _ in range(repeats):
        if state is not None and teardown is not None:
            teardown(state)
        state = None
        speed = [calibration_sample() for _ in range(SETUP_SAMPLES)]
        t0 = time.perf_counter()
        state = setup()
        raw.append(time.perf_counter() - t0)
        speed += [calibration_sample() for _ in range(SETUP_SAMPLES)]
        times.append(raw[-1] / slowdown(speed))
    print("set-up seconds as measured: " + " ".join(f"{t:.3f}" for t in raw), file=sys.stderr)
    return statistics.median(times), state


def env_with_src(root: Path) -> dict[str, str]:
    """The environment with the checkout's ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_import(root: Path) -> None:
    """Import ``repro`` in a fresh interpreter: what a new process pays first.

    Part of every set-up repetition, so ``setup_s`` carries a median import
    time rather than the single import of the benchmark process.
    """
    subprocess.run(
        [sys.executable, "-c", "import repro"], cwd=root, env=env_with_src(root), check=True,
        stdin=subprocess.DEVNULL,
    )
