"""The :class:`Tuner`: runs a search through ``Session.sweep`` memoized rungs.

The tuner is the piece that turns an abstract search (space + searcher +
objective) into engine work.  Each rung becomes one or more
:class:`~repro.specs.SweepSpec` grids — configurations sharing the same
``split``/``split_threshold`` knobs are grouped into a single grid, so each
problem's analysis is resolved once for all of a group's strategies — and
every grid runs through :meth:`Session.sweep(grid, jobs=..., store=...)`.
Because each sampled configuration renders to the *canonical* spec string,
its store keys collide with hand-written specs and with its own earlier
evaluations: an interrupted ``repro tune`` re-run recomputes only the cases
the store is missing (the resume tests prove this via ``engine.stage_runs``).

Determinism contract: with the same :class:`TuneSpec` (including seed) the
tuner produces a byte-identical :class:`Leaderboard` artifact, fresh or
resumed — nothing downstream of the seeded rng and the deterministic engine
feeds the artifact (no wall-clock, no cache-hit counters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.serialize import decode_fields, with_schema
from repro.specs import canonical_float
from repro.tune.leaderboard import Leaderboard, LeaderboardEntry
from repro.tune.objective import (
    OBJECTIVES,
    Objective,
    aggregate,
    bootstrap_ci,
    make_objective,
    mixed_seed,
)
from repro.tune.search import Rung, Searcher, canonical_searcher, make_searcher
from repro.tune.space import SearchSpace, TuneConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.results import ResultStore
    from repro.session import Session

__all__ = ["TuneSpec", "Tuner", "tune"]

#: progress hook: ``(evaluations_done, evaluations_total)`` after each rung.
ProgressHook = Callable[[int, int], None]


@dataclass(frozen=True)
class TuneSpec:
    """Everything that defines one tune run (and hence its leaderboard)."""

    space: SearchSpace
    problems: Sequence[str]
    orderings: Sequence[str] = ("metis",)
    searcher: str = "halving"
    objective: str = "peak-memory"
    seed: int = 0
    nprocs: Optional[int] = None
    scale: Optional[float] = None

    def __post_init__(self) -> None:
        if isinstance(self.space, str):
            from repro.tune.space import parse_space

            object.__setattr__(self, "space", parse_space(self.space))
        problems = tuple(str(p).upper() for p in _tuple_axis(self.problems, "problems"))
        orderings = tuple(_tuple_axis(self.orderings, "orderings"))
        object.__setattr__(self, "problems", problems)
        object.__setattr__(self, "orderings", orderings)
        # canonicalise the searcher/objective specs so equal tunes always
        # serialize identically (and typos fail here, not mid-run)
        object.__setattr__(self, "searcher", canonical_searcher(self.searcher))
        object.__setattr__(self, "objective", _canonical_objective(self.objective))
        object.__setattr__(self, "seed", int(self.seed))
        if self.nprocs is not None:
            if isinstance(self.nprocs, bool) or not isinstance(self.nprocs, int):
                raise ValueError(f"nprocs must be an int or None, got {self.nprocs!r}")
        if self.scale is not None:
            if isinstance(self.scale, bool) or not isinstance(self.scale, (int, float)):
                raise ValueError(f"scale must be a number or None, got {self.scale!r}")
            object.__setattr__(self, "scale", canonical_float(float(self.scale)))

    def make_searcher(self) -> Searcher:
        return make_searcher(self.searcher)

    def make_objective(self) -> Objective:
        return make_objective(self.objective)

    def planned_evaluations(self) -> int:
        """Upper bound on logical case evaluations (for job progress totals)."""
        total = 0
        for configs, _, subset in self.make_searcher().plan(self.space):
            problems = _subset_count(len(self.problems), subset)
            total += configs * problems * len(self.orderings)
        return total

    def to_dict(self) -> dict[str, object]:
        return with_schema(
            "tune_spec",
            {
                "space": self.space.to_dict(),
                "problems": list(self.problems),
                "orderings": list(self.orderings),
                "searcher": self.searcher,
                "objective": self.objective,
                "seed": self.seed,
                "nprocs": self.nprocs,
                "scale": self.scale,
            },
        )

    _FIELDS = (
        "space",
        "problems",
        "orderings",
        "searcher",
        "objective",
        "seed",
        "nprocs",
        "scale",
    )

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TuneSpec":
        payload = decode_fields("tune_spec", dict(data), cls._FIELDS, label="TuneSpec", strict=True)
        space = payload.pop("space", None)
        if not isinstance(space, Mapping):
            raise ValueError("TuneSpec dict needs a 'space' mapping")
        return cls(space=SearchSpace.from_dict(space), **payload)  # type: ignore[arg-type]


def _tuple_axis(values: object, name: str) -> tuple[str, ...]:
    if isinstance(values, str):
        values = (values,)
    out = tuple(str(v) for v in values)  # type: ignore[union-attr]
    if not out:
        raise ValueError(f"TuneSpec needs at least one entry in {name!r}")
    return out


def _canonical_objective(spec: str) -> str:
    return OBJECTIVES.canonical(spec)


def _subset_count(total: int, fraction: float) -> int:
    return max(1, min(total, math.ceil(total * fraction)))


class Tuner:
    """Executes one :class:`TuneSpec` against a session, producing a board.

    ``store`` makes the run resumable (every rung evaluation is keyed and
    memoized there); ``progress`` is called with
    ``(evaluations_done, evaluations_total)`` after each rung, which is how
    the service daemon reports tune-job progress.
    """

    def __init__(
        self,
        session: "Session",
        spec: TuneSpec,
        *,
        store: "ResultStore | str | None" = None,
        jobs: Optional[int] = None,
        progress: Optional[ProgressHook] = None,
    ) -> None:
        self.session = session
        self.spec = spec
        self.store = store
        self.jobs = jobs
        self.progress = progress
        self._objective = spec.make_objective()
        self._per_problem: dict[str, dict[str, float]] = {}
        self._done = 0
        self._total = spec.planned_evaluations()

    # ------------------------------------------------------------------ #
    # rung evaluation
    # ------------------------------------------------------------------ #
    def _rung_problems(self, rung: Rung) -> tuple[str, ...]:
        """The problem-subset prefix this rung evaluates."""
        count = _subset_count(len(self.spec.problems), rung.subset_fraction)
        return tuple(self.spec.problems[:count])

    def _rung_scale(self, rung: Rung) -> float:
        base = self.spec.scale if self.spec.scale is not None else self.session.scale
        return canonical_float(float(base) * rung.scale_fraction)

    def _evaluate(self, configs: Sequence[TuneConfig], rung: Rung) -> list[float]:
        """Aggregated objective scores for ``configs`` at ``rung`` fidelity.

        Configurations sharing ``split``/``split_threshold`` are grouped into
        one :class:`SweepSpec`, so the engine resolves a single analysis per
        problem for all of a group's strategies.
        """
        problems = self._rung_problems(rung)
        orderings = self.spec.orderings
        scale = self._rung_scale(rung)
        groups: dict[tuple[bool, Optional[int]], list[TuneConfig]] = {}
        for config in configs:
            groups.setdefault((config.split, config.split_threshold), []).append(config)

        from repro.specs import SweepSpec

        scores: dict[str, float] = {}
        for (split, threshold), group in sorted(groups.items(), key=lambda kv: str(kv[0])):
            strategies = [config.strategy for config in group]
            grid = SweepSpec(
                problems=list(problems),
                orderings=list(orderings),
                strategies=strategies,
                split=[split],
                nprocs=[self.spec.nprocs],
                scale=[scale],
                split_threshold=[threshold],
            )
            view = self.session.sweep(grid, jobs=self.jobs, store=self.store)
            # grid order is problem-major: problems × orderings × strategies
            for s_idx, config in enumerate(group):
                per_problem: dict[str, float] = {}
                for p_idx, problem in enumerate(problems):
                    per_ordering = []
                    for o_idx in range(len(orderings)):
                        index = (p_idx * len(orderings) + o_idx) * len(strategies) + s_idx
                        per_ordering.append(self._objective.score(view[index]))
                    per_problem[problem] = aggregate(per_ordering)
                # keep the deepest-rung per-problem scores for the board
                self._per_problem[config.key] = per_problem
                scores[config.key] = aggregate(list(per_problem.values()))
        self._done += len(configs) * len(problems) * len(orderings)
        if self.progress is not None:
            self.progress(self._done, self._total)
        return [scores[config.key] for config in configs]

    # ------------------------------------------------------------------ #
    # the run
    # ------------------------------------------------------------------ #
    def run(self) -> Leaderboard:
        """Execute the search and return the (deterministic) leaderboard."""
        searcher = self.spec.make_searcher()
        rng = np.random.default_rng(self.spec.seed)
        outcome = searcher.run(self.spec.space, rng, self._evaluate)
        entries = []
        for rank, trial in enumerate(outcome.ranked(), start=1):
            config = trial.config
            per_problem = self._per_problem.get(config.key, {})
            ci_low, ci_high = bootstrap_ci(
                list(per_problem.values()) or [trial.last_score],
                seed=mixed_seed(self.spec.seed, config.key),
            )
            entries.append(
                LeaderboardEntry(
                    rank=rank,
                    key=config.key,
                    strategy=config.strategy,
                    split=config.split,
                    split_threshold=config.split_threshold,
                    rung=trial.last_rung,
                    score=trial.last_score,
                    ci_low=ci_low,
                    ci_high=ci_high,
                    per_problem=per_problem,
                )
            )
        rungs = [
            {
                "index": rung.index,
                "scale_fraction": canonical_float(rung.scale_fraction),
                "subset_fraction": canonical_float(rung.subset_fraction),
            }
            for rung in outcome.rungs
        ]
        evaluations = sum(
            len(self._rung_problems(rung)) * len(self.spec.orderings) * count
            for rung, count in self._rung_counts(outcome)
        )
        return Leaderboard(
            spec=self.spec.to_dict(),
            rungs=rungs,
            entries=entries,
            evaluations=evaluations,
        )

    @staticmethod
    def _rung_counts(outcome) -> list[tuple[Rung, int]]:
        """How many configs were actually evaluated at each rung."""
        counts: dict[int, int] = {}
        for trial in outcome.trials:
            for rung_index, _ in trial.scores:
                counts[rung_index] = counts.get(rung_index, 0) + 1
        return [(rung, counts.get(rung.index, 0)) for rung in outcome.rungs]


def tune(
    session: "Session",
    spec: TuneSpec,
    *,
    store: "ResultStore | str | None" = None,
    jobs: Optional[int] = None,
    progress: Optional[ProgressHook] = None,
) -> Leaderboard:
    """Convenience wrapper: build a :class:`Tuner` and run it."""
    return Tuner(session, spec, store=store, jobs=jobs, progress=progress).run()
