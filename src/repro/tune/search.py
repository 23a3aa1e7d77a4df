"""Pluggable searchers: exhaustive grid, seeded random, successive halving.

A searcher decides *which* configurations are evaluated *at which fidelity*;
it never touches the engine.  The driver hands it an ``evaluate`` callback —
``evaluate(configs, rung) -> list[float]`` (aggregated objective scores,
lower is better) — and receives a :class:`SearchOutcome` recording every
trial.  The three built-ins, resolvable through the spec mini-language
(``"halving(samples=8,eta=2,rungs=3)"``):

``grid``
    Every point of :meth:`SearchSpace.grid` at full fidelity.  The
    reference: exact, exhaustive, and the baseline the racing searchers are
    proven cheaper than (via ``engine.stage_runs``).
``random``
    ``samples`` distinct seeded draws at full fidelity.
``halving``
    Successive halving: ``samples`` seeded draws race through ``rungs``
    fidelity levels (the ladder ``eta**-(rungs-1) … 1.0``); after each rung
    only the top ``1/eta`` fraction is promoted, so dominated
    configurations are early-stopped at cheap fidelities and only the
    survivors pay the full-fidelity price.  ``fidelity`` chooses what a
    rung scales down: the problem ``scale``, the problem *subset*, or both.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.registry import Registry
from repro.tune.space import SearchSpace, TuneConfig

__all__ = [
    "Rung",
    "Trial",
    "SearchOutcome",
    "Searcher",
    "GridSearcher",
    "RandomSearcher",
    "HalvingSearcher",
    "SEARCHERS",
    "make_searcher",
]

#: what a halving rung reduces: the problem scale, the problem subset, or both.
FIDELITY_MODES = ("scale", "subset", "both")


@dataclass(frozen=True)
class Rung:
    """One fidelity level: scale multiplier and problem-subset fraction."""

    index: int
    #: multiplies the tuner's base problem scale (1.0 = full fidelity).
    scale_fraction: float = 1.0
    #: fraction of the problem set evaluated (1.0 = every problem).
    subset_fraction: float = 1.0

    @property
    def full(self) -> bool:
        return self.scale_fraction >= 1.0 and self.subset_fraction >= 1.0


@dataclass
class Trial:
    """One configuration's path through the rungs (evaluation order)."""

    config: TuneConfig
    #: ``(rung index, aggregated score)`` per evaluation, in rung order.
    scores: list[tuple[int, float]] = field(default_factory=list)

    @property
    def last_rung(self) -> int:
        return self.scores[-1][0] if self.scores else -1

    @property
    def last_score(self) -> float:
        return self.scores[-1][1] if self.scores else float("inf")


@dataclass
class SearchOutcome:
    """Everything a search did: the rung ladder and every trial's scores."""

    rungs: list[Rung]
    trials: list[Trial]

    def ranked(self) -> list[Trial]:
        """Trials best-first: deepest rung, then score, then config key.

        The config key tie-break keeps the ranking total and deterministic,
        which is what makes the leaderboard artifact byte-stable.
        """
        return sorted(
            self.trials, key=lambda t: (-t.last_rung, t.last_score, t.config.key)
        )


#: the driver-provided callback: aggregated scores, index-aligned with configs.
Evaluate = Callable[[Sequence[TuneConfig], Rung], "list[float]"]


class Searcher(ABC):
    """Strategy-search policy; subclasses drive the rung/evaluation loop."""

    name: str = ""

    @abstractmethod
    def run(self, space: SearchSpace, rng: np.random.Generator, evaluate: Evaluate) -> SearchOutcome:
        """Execute the search, calling ``evaluate`` once per rung."""

    @abstractmethod
    def plan(self, space: SearchSpace) -> list[tuple[int, float, float]]:
        """``(configs, scale_fraction, subset_fraction)`` per rung (an upper
        bound, without sampling — used for job progress totals)."""


def _distinct_samples(
    space: SearchSpace, rng: np.random.Generator, samples: int
) -> list[TuneConfig]:
    """``samples`` distinct draws (by config key); a small space may yield fewer.

    The rng consumption depends only on the seed and the space, so the same
    seed always produces the same configuration list.
    """
    configs: list[TuneConfig] = []
    seen: set[str] = set()
    for _ in range(samples * 20):
        if len(configs) >= samples:
            break
        config = space.sample(rng)
        if config.key not in seen:
            seen.add(config.key)
            configs.append(config)
    return configs


def _evaluated(configs: Sequence[TuneConfig], rung: Rung, evaluate: Evaluate) -> list[float]:
    scores = list(evaluate(configs, rung))
    if len(scores) != len(configs):
        raise ValueError(
            f"evaluate returned {len(scores)} scores for {len(configs)} configs"
        )
    return scores


@dataclass(frozen=True)
class GridSearcher(Searcher):
    """Exhaustive grid at full fidelity (``resolution`` points per range)."""

    resolution: int = 3
    name: str = "grid"

    def __post_init__(self) -> None:
        if self.resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {self.resolution}")

    def run(self, space: SearchSpace, rng: np.random.Generator, evaluate: Evaluate) -> SearchOutcome:
        configs = space.grid(self.resolution)
        rung = Rung(index=0)
        scores = _evaluated(configs, rung, evaluate)
        trials = [
            Trial(config=c, scores=[(0, s)]) for c, s in zip(configs, scores)
        ]
        return SearchOutcome(rungs=[rung], trials=trials)

    def plan(self, space: SearchSpace) -> list[tuple[int, float, float]]:
        return [(space.grid_size(self.resolution), 1.0, 1.0)]


@dataclass(frozen=True)
class RandomSearcher(Searcher):
    """``samples`` distinct seeded draws, all at full fidelity."""

    samples: int = 8
    name: str = "random"

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")

    def run(self, space: SearchSpace, rng: np.random.Generator, evaluate: Evaluate) -> SearchOutcome:
        configs = _distinct_samples(space, rng, self.samples)
        rung = Rung(index=0)
        scores = _evaluated(configs, rung, evaluate)
        trials = [Trial(config=c, scores=[(0, s)]) for c, s in zip(configs, scores)]
        return SearchOutcome(rungs=[rung], trials=trials)

    def plan(self, space: SearchSpace) -> list[tuple[int, float, float]]:
        return [(self.samples, 1.0, 1.0)]


@dataclass(frozen=True)
class HalvingSearcher(Searcher):
    """Successive halving / racing over a geometric fidelity ladder."""

    samples: int = 8
    eta: int = 2
    rungs: int = 3
    fidelity: str = "scale"
    name: str = "halving"

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.eta < 2:
            raise ValueError(f"eta must be >= 2, got {self.eta}")
        if self.rungs < 1:
            raise ValueError(f"rungs must be >= 1, got {self.rungs}")
        if self.fidelity not in FIDELITY_MODES:
            raise ValueError(
                f"fidelity must be one of {FIDELITY_MODES}, got {self.fidelity!r}"
            )

    def ladder(self) -> list[Rung]:
        """The rung ladder: fractions ``eta**-(rungs-1) … 1.0``."""
        out = []
        for k in range(self.rungs):
            fraction = float(self.eta) ** (k - (self.rungs - 1))
            out.append(
                Rung(
                    index=k,
                    scale_fraction=fraction if self.fidelity in ("scale", "both") else 1.0,
                    subset_fraction=fraction if self.fidelity in ("subset", "both") else 1.0,
                )
            )
        return out

    def _survivors(self, count: int) -> int:
        return max(1, math.ceil(count / self.eta))

    def run(self, space: SearchSpace, rng: np.random.Generator, evaluate: Evaluate) -> SearchOutcome:
        configs = _distinct_samples(space, rng, self.samples)
        trials = {config.key: Trial(config=config) for config in configs}
        active = configs
        rungs = self.ladder()
        for rung in rungs:
            scores = _evaluated(active, rung, evaluate)
            for config, score in zip(active, scores):
                trials[config.key].scores.append((rung.index, score))
            if rung.index == rungs[-1].index:
                break
            # promote the top 1/eta fraction; ties broken by config key so
            # the racing path is as deterministic as the exhaustive one
            ranked = sorted(zip(active, scores), key=lambda cs: (cs[1], cs[0].key))
            active = [config for config, _ in ranked[: self._survivors(len(active))]]
        return SearchOutcome(rungs=rungs, trials=[trials[c.key] for c in configs])

    def plan(self, space: SearchSpace) -> list[tuple[int, float, float]]:
        out = []
        count = self.samples
        for rung in self.ladder():
            out.append((count, rung.scale_fraction, rung.subset_fraction))
            count = self._survivors(count)
        return out


SEARCHERS: Registry = Registry("searcher")
SEARCHERS.add(
    "grid",
    GridSearcher,
    description="exhaustive cartesian grid at full fidelity",
    params={"resolution": 3},
)
SEARCHERS.add(
    "random",
    RandomSearcher,
    description="seeded random draws at full fidelity",
    params={"samples": 8},
)
SEARCHERS.add(
    "halving",
    HalvingSearcher,
    description="successive halving over a geometric fidelity ladder",
    params={"samples": 8, "eta": 2, "rungs": 3, "fidelity": "scale"},
)


def make_searcher(spec: str) -> Searcher:
    """Build a searcher from a mini-language spec (``"halving(eta=3)"``)."""
    entry, params = SEARCHERS.resolve(spec)
    return entry.value(**params)  # type: ignore[operator]


def canonical_searcher(spec: str) -> str:
    """The spec with defaults bound (see :meth:`Registry.canonical`)."""
    return SEARCHERS.canonical(spec)
