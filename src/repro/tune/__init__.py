"""Strategy auto-tuning: search spaces, racing searchers, leaderboards.

The subsystem the paper stops short of: instead of comparing a handful of
hand-picked strategies, ``repro.tune`` searches the parametric strategy
space (``hybrid(alpha=…)``, split thresholds, …) for the best configuration
under an explicit objective, with every evaluation memoized in a
:class:`~repro.results.ResultStore` so interrupted searches resume cheaply.

* :mod:`repro.tune.space` — declarative :class:`SearchSpace` over
  :class:`~repro.specs.ParamSpec` parameters, deterministic seeded sampling;
* :mod:`repro.tune.search` — grid / random / successive-halving searchers;
* :mod:`repro.tune.objective` — objectives over :class:`CaseResult` with
  deterministic bootstrap CIs;
* :mod:`repro.tune.driver` — the :class:`Tuner` evaluating rungs through
  ``Session.sweep(grid, jobs=…, store=…)``;
* :mod:`repro.tune.leaderboard` — the byte-stable ranked artifact.
"""

from repro.tune.driver import Tuner, TuneSpec, tune
from repro.tune.leaderboard import Leaderboard, LeaderboardEntry
from repro.tune.objective import OBJECTIVES, Objective, bootstrap_ci, make_objective
from repro.tune.search import (
    SEARCHERS,
    GridSearcher,
    HalvingSearcher,
    RandomSearcher,
    Rung,
    Searcher,
    SearchOutcome,
    Trial,
    make_searcher,
)
from repro.tune.space import (
    Choice,
    Domain,
    IntRange,
    Range,
    SearchSpace,
    TuneConfig,
    parse_domain,
    parse_space,
)

__all__ = [
    "Tuner",
    "TuneSpec",
    "tune",
    "Leaderboard",
    "LeaderboardEntry",
    "Objective",
    "OBJECTIVES",
    "make_objective",
    "bootstrap_ci",
    "Searcher",
    "SEARCHERS",
    "make_searcher",
    "GridSearcher",
    "RandomSearcher",
    "HalvingSearcher",
    "Rung",
    "Trial",
    "SearchOutcome",
    "SearchSpace",
    "TuneConfig",
    "Domain",
    "Range",
    "IntRange",
    "Choice",
    "parse_domain",
    "parse_space",
]
