"""The benchmark data model: cases, results and whole runs, JSON round-trip.

Benchmarks are only useful as *diffable artifacts*: a run records enough to
be compared against a baseline recorded on another day (or another commit) —
the case identity, the individual repeat timings, any domain metrics the case
chose to report (stack peaks, case counts, speedups) and the environment it
ran under.  Everything here serialises to plain JSON through ``to_dict`` /
``from_dict`` and is versioned with :data:`SCHEMA_VERSION` so a format change
fails loudly instead of mis-comparing.
"""

from __future__ import annotations

import json
import os
import platform
import re
import socket
from dataclasses import dataclass, field
from typing import Mapping

from repro.bench.env import BenchEnv
from repro.durable import atomic_write
from repro.serialize import decode_fields

__all__ = ["SCHEMA_VERSION", "BenchCase", "BenchResult", "BenchRun", "host_tag"]

#: bump on any change of the result JSON layout.  Schema 2 adds each
#: result's ``calibrated_seconds``.
SCHEMA_VERSION = 2

#: schemas this build loads; a schema-1 run has raw seconds only
READABLE_SCHEMAS = (1, 2)


def host_tag() -> str:
    """A filesystem-safe tag of the current host (for ``BENCH_<host>.json``)."""
    name = socket.gethostname().split(".")[0] or "unknown"
    return re.sub(r"[^A-Za-z0-9_.\-]+", "-", name)


@dataclass(frozen=True)
class BenchCase:
    """Identity of one benchmark case inside a suite.

    ``suite``/``name`` is the comparison key across runs; ``params`` records
    the knobs the case ran with (problem, ordering, repeats, …) so a report
    can explain what was measured without re-reading the suite code.
    """

    name: str
    suite: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(sorted(dict(self.params).items())))

    @property
    def key(self) -> str:
        """Cross-run comparison key."""
        return f"{self.suite}/{self.name}"

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "suite": self.suite, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BenchCase":
        data = decode_fields("bench_case", data, {"name", "suite", "params"}, label="BenchCase")
        params = data.get("params") or {}
        if not isinstance(params, Mapping):
            raise ValueError(f"BenchCase params must be a mapping, got {params!r}")
        return cls(
            name=str(data["name"]), suite=str(data["suite"]), params=tuple(params.items())
        )


@dataclass
class BenchResult:
    """Timings and metrics of one executed case.

    ``seconds`` holds every timed repeat (after ``warmup`` untimed ones),
    ``calibrated_seconds`` the same repeats at the reference machine's speed
    (see :mod:`repro.bench.calibration`; empty in a schema-1 run).  ``best``
    — the minimum — is the comparison statistic: it is the least noisy
    estimator of the true cost on a shared machine.  ``error`` is set (and
    both lists left empty) when the case raised instead of finishing.
    """

    case: BenchCase
    seconds: list[float] = field(default_factory=list)
    calibrated_seconds: list[float] = field(default_factory=list)
    warmup: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    error: str | None = None
    #: optional cProfile digest (``repro bench run --profile``): the top-N
    #: functions by cumulative time of one untimed post-measurement run.
    profile: list[dict] | None = None

    @property
    def best(self) -> float:
        return min(self.seconds) if self.seconds else float("nan")

    @property
    def calibrated_best(self) -> float:
        return min(self.calibrated_seconds) if self.calibrated_seconds else float("nan")

    @property
    def mean(self) -> float:
        return sum(self.seconds) / len(self.seconds) if self.seconds else float("nan")

    @property
    def repeats(self) -> int:
        return len(self.seconds)

    def to_dict(self) -> dict[str, object]:
        data: dict[str, object] = {
            "case": self.case.to_dict(),
            "seconds": [float(s) for s in self.seconds],
            "calibrated_seconds": [float(s) for s in self.calibrated_seconds],
            "warmup": self.warmup,
            "metrics": {k: float(v) for k, v in self.metrics.items()},
        }
        if self.error is not None:
            data["error"] = self.error
        if self.profile is not None:
            data["profile"] = [dict(row) for row in self.profile]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BenchResult":
        # tolerant: a baseline recorded by a newer build (extra fields) still
        # loads for comparison on this one
        data = decode_fields(
            "bench_result",
            data,
            {"case", "seconds", "calibrated_seconds", "warmup", "metrics", "error", "profile"},
            label="BenchResult",
        )
        profile = data.get("profile")
        return cls(
            case=BenchCase.from_dict(data["case"]),  # type: ignore[arg-type]
            seconds=[float(s) for s in data.get("seconds", ())],  # type: ignore[union-attr]
            calibrated_seconds=[float(s) for s in data.get("calibrated_seconds", ())],  # type: ignore[union-attr]
            warmup=int(data.get("warmup", 0)),  # type: ignore[arg-type]
            metrics={str(k): float(v) for k, v in (data.get("metrics") or {}).items()},  # type: ignore[union-attr]
            error=data.get("error"),  # type: ignore[arg-type]
            profile=[dict(row) for row in profile] if profile is not None else None,  # type: ignore[union-attr]
        )


@dataclass
class BenchRun:
    """One complete benchmark run: the unit stored, compared and uploaded."""

    host: str = field(default_factory=host_tag)
    timestamp: str = ""
    python: str = field(default_factory=platform.python_version)
    env: dict[str, object] = field(default_factory=dict)
    results: list[BenchResult] = field(default_factory=list)
    schema: int = SCHEMA_VERSION

    @classmethod
    def started(cls, env: BenchEnv) -> "BenchRun":
        import datetime

        return cls(
            timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            env=env.to_dict(),
        )

    def by_key(self) -> dict[str, BenchResult]:
        """Results indexed by their cross-run comparison key."""
        return {r.case.key: r for r in self.results}

    @property
    def errors(self) -> list[BenchResult]:
        return [r for r in self.results if r.error is not None]

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, object]:
        return {
            "schema": self.schema,
            "host": self.host,
            "timestamp": self.timestamp,
            "python": self.python,
            "env": dict(self.env),
            "results": [r.to_dict() for r in self.results],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BenchRun":
        schema = data.get("schema")
        if schema not in READABLE_SCHEMAS:
            raise ValueError(
                f"unsupported benchmark schema {schema!r} (this build reads schemas "
                f"{', '.join(map(str, READABLE_SCHEMAS))}); "
                "re-record the baseline with 'repro bench run --save'"
            )
        return cls(
            host=str(data.get("host", "")),
            timestamp=str(data.get("timestamp", "")),
            python=str(data.get("python", "")),
            env=dict(data.get("env") or {}),  # type: ignore[arg-type]
            results=[BenchResult.from_dict(r) for r in data.get("results", ())],  # type: ignore[union-attr]
            schema=SCHEMA_VERSION,
        )

    def save(self, path: str) -> None:
        """Write the run as indented JSON, atomically (a failure keeps the old file)."""
        data = (json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n").encode()
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        atomic_write(path, data, fsync=False)

    @classmethod
    def load(cls, path: str) -> "BenchRun":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
