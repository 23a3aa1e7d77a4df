"""The leaderboard artifact: ranked configurations, persisted byte-stably.

A :class:`Leaderboard` is the durable output of one tune run — the ranked
configurations with their per-problem scores and bootstrap CIs, plus enough
header (the full :class:`TuneSpec` dict, the rung ladder) to re-run the
search that produced it.  It is schema-versioned through
:mod:`repro.serialize` (kind ``"leaderboard"``) and encoded with
:func:`canonical_json`, and it deliberately carries **no wall-clock fields
and no computed/skipped counters**: a fresh run and an interrupted-and-
resumed run of the same seed must produce byte-identical files (that
identity is asserted by tests and by the CI ``tune-smoke`` job).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

from repro.durable import atomic_write
from repro.serialize import canonical_json, decode_fields, with_schema

__all__ = ["LeaderboardEntry", "Leaderboard", "DEFAULT_LEADERBOARD_NAME"]

#: conventional file name next to the tune result store.
DEFAULT_LEADERBOARD_NAME = "leaderboard.json"


@dataclass(frozen=True)
class LeaderboardEntry:
    """One ranked configuration and its scores."""

    rank: int
    key: str
    strategy: str
    split: bool
    split_threshold: Optional[int]
    #: deepest fidelity rung this config was evaluated at.
    rung: int
    #: aggregated objective score at that rung (lower is better).
    score: float
    #: percentile-bootstrap CI over the per-problem scores.
    ci_low: float
    ci_high: float
    #: per-problem scores at the deepest rung (problem → score).
    per_problem: Mapping[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        return {
            "rank": int(self.rank),
            "key": self.key,
            "strategy": self.strategy,
            "split": bool(self.split),
            "split_threshold": self.split_threshold,
            "rung": int(self.rung),
            "score": float(self.score),
            "ci_low": float(self.ci_low),
            "ci_high": float(self.ci_high),
            "per_problem": {k: float(v) for k, v in sorted(self.per_problem.items())},
        }

    _FIELDS = (
        "rank",
        "key",
        "strategy",
        "split",
        "split_threshold",
        "rung",
        "score",
        "ci_low",
        "ci_high",
        "per_problem",
    )

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "LeaderboardEntry":
        payload = decode_fields("leaderboard", dict(data), cls._FIELDS, label="LeaderboardEntry")
        payload.pop("schema", None)
        return cls(**payload)  # type: ignore[arg-type]


@dataclass(frozen=True)
class Leaderboard:
    """A full tune outcome: spec header, rung ladder, ranked entries."""

    #: the :class:`~repro.tune.driver.TuneSpec` dict that produced this board.
    spec: Mapping[str, object]
    #: rung ladder: ``{"index", "scale_fraction", "subset_fraction"}`` dicts.
    rungs: Sequence[Mapping[str, object]]
    entries: Sequence[LeaderboardEntry]
    #: total logical case evaluations (identical for fresh and resumed runs).
    evaluations: int

    @property
    def best(self) -> Optional[LeaderboardEntry]:
        return self.entries[0] if self.entries else None

    def to_dict(self) -> dict[str, object]:
        return with_schema(
            "leaderboard",
            {
                "spec": dict(self.spec),
                "rungs": [dict(r) for r in self.rungs],
                "entries": [e.to_dict() for e in self.entries],
                "evaluations": int(self.evaluations),
            },
        )

    def to_bytes(self) -> bytes:
        """The canonical byte encoding (what :meth:`save` writes)."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Leaderboard":
        payload = decode_fields(
            "leaderboard",
            dict(data),
            ("spec", "rungs", "entries", "evaluations"),
            label="Leaderboard",
        )
        return cls(
            spec=dict(payload.get("spec", {})),  # type: ignore[arg-type]
            rungs=[dict(r) for r in payload.get("rungs", ())],  # type: ignore[union-attr]
            entries=[
                LeaderboardEntry.from_dict(e)  # type: ignore[arg-type]
                for e in payload.get("entries", ())  # type: ignore[union-attr]
            ],
            evaluations=int(payload.get("evaluations", 0)),  # type: ignore[arg-type]
        )

    def save(self, path: "str | os.PathLike") -> Path:
        """Atomically write the canonical encoding (:func:`repro.durable.atomic_write`)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, self.to_bytes(), fsync=False)
        return path

    @classmethod
    def load(cls, path: "str | os.PathLike") -> "Leaderboard":
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"leaderboard file {path} does not hold a JSON object")
        return cls.from_dict(data)
